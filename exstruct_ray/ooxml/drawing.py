"""Drawing-part parsing: shapes, connectors, charts.

Semantics parity: /root/reference/src/exstruct/core/ooxml_drawing.py:186-743
— anchor kinds (absolute/oneCell/twoCell), xfrm geometry merge, EMU→points,
rotation/60000, flipH/V → signed dx/dy, preset-geometry type labels, chart
part resolution through drawing rels, chart type/title/axis/series extraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import xml.etree.ElementTree as ET

from ..functions.geometry import emu_to_points
from ..models import ChartSeries, SmartArtNode
from .package import (
    CHART_REL_TYPE,
    DIAGRAM_DATA_REL_TYPE,
    DRAWING_REL_TYPE,
    VirtualPackage,
)
from .sheet_parser import SheetMetrics

_A = "{http://schemas.openxmlformats.org/drawingml/2006/main}"
_C = "{http://schemas.openxmlformats.org/drawingml/2006/chart}"
_DGM = "{http://schemas.openxmlformats.org/drawingml/2006/diagram}"
_R = "{http://schemas.openxmlformats.org/officeDocument/2006/relationships}"
_XDR = "{http://schemas.openxmlformats.org/drawingml/2006/spreadsheetDrawing}"

_PREFIXES = {"a": _A, "c": _C, "dgm": _DGM, "xdr": _XDR}


def _path(text: str) -> tuple[str, ...]:
    """``"xdr:spPr/a:xfrm"`` → the Clark-notation child tags, for ``_find``."""
    return tuple(
        _PREFIXES[prefix] + local
        for prefix, local in (step.split(":") for step in text.split("/"))
    )


_SP_NAME = _path("xdr:nvSpPr/xdr:cNvPr")
_SP_PROPS = _path("xdr:nvSpPr/xdr:cNvSpPr")
_SP_XFRM = _path("xdr:spPr/a:xfrm")
_SP_GEOM = _path("xdr:spPr/a:prstGeom")
_SP_LINE = _path("xdr:spPr/a:ln")
_CXN_NAME = _path("xdr:nvCxnSpPr/xdr:cNvPr")
_CXN_PROPS = _path("xdr:nvCxnSpPr/xdr:cNvCxnSpPr")
_FRAME_NAME = _path("xdr:nvGraphicFramePr/xdr:cNvPr")
_FRAME_CHART = _path("a:graphic/a:graphicData/c:chart")
_FRAME_DIAGRAM = _path("a:graphic/a:graphicData/dgm:relIds")
_CHART_TITLE = _path("c:chart/c:title")
_PLOT_AREA = _path("c:chart/c:plotArea")
_SER_NAME_REF = _path("c:tx/c:strRef/c:f")
_SER_NAME_CACHED = _path("c:tx/c:strRef/c:strCache/c:pt/c:v")
_SER_NAME_TEXT = _path("c:tx/c:v")
_SER_X_RANGES = tuple(map(_path, (
    "c:xVal/c:numRef/c:f", "c:xVal/c:strRef/c:f",
    "c:cat/c:numRef/c:f", "c:cat/c:strRef/c:f",
)))
_SER_Y_RANGES = tuple(map(_path, (
    "c:yVal/c:numRef/c:f", "c:yVal/c:strRef/c:f", "c:val/c:numRef/c:f",
)))

_CHART_TAGS = {
    "areaChart",
    "barChart",
    "bubbleChart",
    "doughnutChart",
    "lineChart",
    "ofPieChart",
    "pieChart",
    "radarChart",
    "scatterChart",
    "stockChart",
    "surfaceChart",
}
_CHART_TYPE_LABELS = {
    "areaChart": "Area",
    "bubbleChart": "Bubble",
    "doughnutChart": "Doughnut",
    "lineChart": "Line",
    "ofPieChart": "OfPie",
    "pieChart": "Pie",
    "radarChart": "Radar",
    "scatterChart": "Scatter",
    "stockChart": "Stock",
    "surfaceChart": "Surface",
}
_SHAPE_TYPE_MAP = {
    "ellipse": "Oval",
    "flowChartDecision": "FlowchartDecision",
    "flowChartProcess": "FlowchartProcess",
    "rect": "Rectangle",
    "straightConnector1": "StraightConnector1",
}


@dataclass(frozen=True)
class ShapeInfo:
    drawing_id: int
    name: str
    left: int | None
    top: int | None
    width: int | None
    height: int | None
    text: str = ""
    shape_type: str | None = None
    rotation: float | None = None
    direction_dx: int | None = None
    direction_dy: int | None = None


@dataclass(frozen=True)
class ConnectorInfo:
    drawing_id: int
    name: str
    left: int | None
    top: int | None
    width: int | None
    height: int | None
    start_drawing_id: int | None
    end_drawing_id: int | None
    text: str = ""
    rotation: float | None = None
    direction_dx: int | None = None
    direction_dy: int | None = None
    begin_arrow_style: int | None = None
    end_arrow_style: int | None = None


@dataclass(frozen=True)
class ChartInfo:
    name: str
    chart_type: str
    title: str | None
    y_axis_title: str
    y_axis_range: list[float]
    series: list[ChartSeries]
    anchor_left: int | None
    anchor_top: int | None
    anchor_width: int | None
    anchor_height: int | None


@dataclass(frozen=True)
class SmartArtInfo:
    name: str
    layout: str
    nodes: list[SmartArtNode]
    anchor_left: int | None
    anchor_top: int | None
    anchor_width: int | None
    anchor_height: int | None


@dataclass
class SheetDrawing:
    shapes: list[ShapeInfo] = field(default_factory=list)
    connectors: list[ConnectorInfo] = field(default_factory=list)
    charts: list[ChartInfo] = field(default_factory=list)
    smartarts: list[SmartArtInfo] = field(default_factory=list)


def resolve_sheet_drawing_path(package: VirtualPackage, sheet_path: str) -> str | None:
    for rel in package.relationships(sheet_path).values():
        if rel.relationship_type == DRAWING_REL_TYPE:
            return rel.target
    return None


def parse_sheet_drawing(
    package: VirtualPackage, drawing_path: str, metrics: SheetMetrics
) -> SheetDrawing:
    """Parse one drawing part, preserving anchor order within each kind."""
    root = package.read_xml(drawing_path)
    rel_map = package.relationships(drawing_path)
    out = SheetDrawing()
    for anchor in root:
        tag = anchor.tag.rsplit("}", 1)[-1]
        if tag not in {"absoluteAnchor", "oneCellAnchor", "twoCellAnchor"}:
            continue
        sp = anchor.find(f"{_XDR}sp")
        if sp is not None:
            info = _parse_shape_node(anchor, sp, metrics)
            if info is not None:
                out.shapes.append(info)
            continue
        cxn = anchor.find(f"{_XDR}cxnSp")
        if cxn is not None:
            cinfo = _parse_connector_node(anchor, cxn, metrics)
            if cinfo is not None:
                out.connectors.append(cinfo)
            continue
        frame = anchor.find(f"{_XDR}graphicFrame")
        if frame is not None:
            chart = _parse_chart_node(package, anchor, frame, rel_map, metrics)
            if chart is not None:
                out.charts.append(chart)
                continue
            smartart = _parse_smartart_node(package, anchor, frame, rel_map, metrics)
            if smartart is not None:
                out.smartarts.append(smartart)
    return out


def _parse_shape_node(
    anchor: ET.Element, node: ET.Element, metrics: SheetMetrics
) -> ShapeInfo | None:
    c_nv_pr = _find(node, _SP_NAME)
    if c_nv_pr is None:
        return None
    drawing_id = _int_attr(c_nv_pr, "id") or 0
    name = c_nv_pr.attrib.get("name", f"Shape {drawing_id}")
    left, top, width, height, rotation, flip_h, flip_v = _parse_xfrm(
        _find(node, _SP_XFRM)
    )
    left, top, width, height = _merge_anchor_geometry(
        anchor, left, top, width, height, metrics
    )
    dx = None if width is None else (-width if flip_h else width)
    dy = None if height is None else (-height if flip_v else height)
    return ShapeInfo(
        drawing_id=drawing_id,
        name=name,
        left=left,
        top=top,
        width=width,
        height=height,
        text=_extract_text(node.find(f"{_XDR}txBody")),
        shape_type=_format_shape_type(node),
        rotation=rotation,
        direction_dx=dx,
        direction_dy=dy,
    )


def _parse_connector_node(
    anchor: ET.Element, node: ET.Element, metrics: SheetMetrics
) -> ConnectorInfo | None:
    c_nv_pr = _find(node, _CXN_NAME)
    if c_nv_pr is None:
        return None
    drawing_id = _int_attr(c_nv_pr, "id") or 0
    name = c_nv_pr.attrib.get("name", f"Connector {drawing_id}")
    left, top, width, height, rotation, flip_h, flip_v = _parse_xfrm(
        _find(node, _SP_XFRM)
    )
    left, top, width, height = _merge_anchor_geometry(
        anchor, left, top, width, height, metrics
    )
    props = _find(node, _CXN_PROPS)
    start_node = props.find(f"{_A}stCxn") if props is not None else None
    end_node = props.find(f"{_A}endCxn") if props is not None else None
    dx = None if width is None else (-width if flip_h else width)
    dy = None if height is None else (-height if flip_v else height)
    line = _find(node, _SP_LINE)
    return ConnectorInfo(
        drawing_id=drawing_id,
        name=name,
        left=left,
        top=top,
        width=width,
        height=height,
        start_drawing_id=_int_attr(start_node, "id"),
        end_drawing_id=_int_attr(end_node, "id"),
        text="",
        rotation=rotation,
        direction_dx=dx,
        direction_dy=dy,
        begin_arrow_style=2
        if line is not None and line.find(f"{_A}headEnd") is not None
        else None,
        end_arrow_style=2
        if line is not None and line.find(f"{_A}tailEnd") is not None
        else None,
    )


def _parse_chart_node(
    package: VirtualPackage,
    anchor: ET.Element,
    node: ET.Element,
    rel_map: dict,
    metrics: SheetMetrics,
) -> ChartInfo | None:
    c_nv_pr = _find(node, _FRAME_NAME)
    if c_nv_pr is None:
        return None
    name = c_nv_pr.attrib.get("name", "Chart")
    chart_ref = _find(node, _FRAME_CHART)
    if chart_ref is None:
        return None
    rel = rel_map.get(chart_ref.attrib.get(f"{_R}id", ""))
    if rel is None or rel.relationship_type != CHART_REL_TYPE:
        return None
    if rel.target not in package:
        return None
    chart_root = package.read_xml(rel.target)
    left, top, width, height, _rot, _fh, _fv = _parse_xfrm(node.find(f"{_XDR}xfrm"))
    left, top, width, height = _merge_anchor_geometry(
        anchor, left, top, width, height, metrics
    )
    return ChartInfo(
        name=name,
        chart_type=_extract_chart_type(chart_root),
        title=_extract_chart_text(_find(chart_root, _CHART_TITLE)),
        y_axis_title=_extract_y_axis_title(chart_root),
        y_axis_range=_extract_y_axis_range(chart_root),
        series=_extract_chart_series(chart_root),
        anchor_left=left,
        anchor_top=top,
        anchor_width=width,
        anchor_height=height,
    )


def _parse_smartart_node(
    package: VirtualPackage,
    anchor: ET.Element,
    node: ET.Element,
    rel_map: dict,
    metrics: SheetMetrics,
) -> SmartArtInfo | None:
    """Light-mode SmartArt from the OOXML diagram data part.

    The reference reads SmartArt only through COM
    (/root/reference/src/exstruct/core/shapes.py:185-305: AllNodes levels +
    TextFrame2 text + Layout.Name); this parses the same hierarchy byte-
    level from xl/diagrams/data*.xml — a graphicFrame whose graphicData is
    the diagram namespace carries dgm:relIds, whose r:dm relationship
    points at the dgm:dataModel part. Node trees reproduce the COM goldens
    exactly (verified on sample/smartart); the one documented delta is the
    layout string — COM reports Excel's LOCALIZED layout name ("基本の循環"),
    OOXML only carries the layout URN, so light emits its tail ("cycle2").
    """
    c_nv_pr = _find(node, _FRAME_NAME)
    name = c_nv_pr.attrib.get("name", "SmartArt") if c_nv_pr is not None else "SmartArt"
    rel_ids = _find(node, _FRAME_DIAGRAM)
    if rel_ids is None:
        return None
    rel = rel_map.get(rel_ids.attrib.get(f"{_R}dm", ""))
    if rel is None or rel.relationship_type != DIAGRAM_DATA_REL_TYPE:
        return None
    if rel.target not in package:
        return None
    layout, nodes = _parse_diagram_data(package.read_xml(rel.target))
    left, top, width, height, _rot, _fh, _fv = _parse_xfrm(node.find(f"{_XDR}xfrm"))
    left, top, width, height = _merge_anchor_geometry(
        anchor, left, top, width, height, metrics
    )
    return SmartArtInfo(
        name=name,
        layout=layout,
        nodes=nodes,
        anchor_left=left,
        anchor_top=top,
        anchor_width=width,
        anchor_height=height,
    )


def _parse_diagram_data(root: ET.Element) -> tuple[str, list[SmartArtNode]]:
    """dgm:dataModel → (layout tail, SmartArtNode roots).

    Points (dgm:pt) carry modelId/type/text; parent-child structure is the
    type="parOf" connection list ordered by srcOrd. Roots are the doc
    point's parOf children; parTrans/sibTrans transition points never
    appear as parOf destinations, so no type filtering is needed beyond
    following the connection graph (matches COM AllNodes, which walks the
    semantic node tree only). A visited set guards malformed cycles.
    """
    texts: dict[str, str] = {}
    doc_id = None
    layout = ""
    pt_lst = root.find(f"{_DGM}ptLst")
    if pt_lst is None:
        return layout, []
    for pt in pt_lst.findall(f"{_DGM}pt"):
        model_id = pt.attrib.get("modelId", "")
        paras: list[str] = []
        t = pt.find(f"{_DGM}t")
        if t is not None:
            for p in t.findall(f"{_A}p"):
                runs = "".join(el.text or "" for el in p.iter(f"{_A}t"))
                if runs:
                    paras.append(runs)
        texts[model_id] = "\n".join(paras)
        if pt.attrib.get("type", "node") == "doc":
            doc_id = model_id
            pr_set = pt.find(f"{_DGM}prSet")
            if pr_set is not None:
                layout = pr_set.attrib.get("loTypeId", "").rsplit("/", 1)[-1]
    children: dict[str, list[tuple[int, str]]] = {}
    cxn_lst = root.find(f"{_DGM}cxnLst")
    if cxn_lst is not None:
        for cxn in cxn_lst.findall(f"{_DGM}cxn"):
            if cxn.attrib.get("type", "parOf") != "parOf":
                continue
            src = cxn.attrib.get("srcId", "")
            dst = cxn.attrib.get("destId", "")
            try:
                src_ord = int(cxn.attrib.get("srcOrd", "0"))
            except ValueError:
                src_ord = 0
            children.setdefault(src, []).append((src_ord, dst))

    def build(model_id: str, seen: frozenset) -> SmartArtNode | None:
        if model_id in seen:
            return None
        kids = [
            built
            for _, child in sorted(children.get(model_id, []))
            if (built := build(child, seen | {model_id})) is not None
        ]
        return SmartArtNode(text=texts.get(model_id, ""), kids=kids)

    if doc_id is None:
        return layout, []
    roots = [
        built
        for _, child in sorted(children.get(doc_id, []))
        if (built := build(child, frozenset({doc_id}))) is not None
    ]
    return layout, roots


def _extract_chart_type(chart_root: ET.Element) -> str:
    plot_area = _find(chart_root, _PLOT_AREA)
    if plot_area is None:
        return "unknown"
    for child in plot_area:
        tag = child.tag.rsplit("}", 1)[-1]
        if tag not in _CHART_TAGS:
            continue
        if tag == "barChart":
            bar_dir = child.find(f"{_C}barDir")
            if bar_dir is not None and bar_dir.attrib.get("val") == "bar":
                return "Bar"
            return "Column"
        return _CHART_TYPE_LABELS.get(tag, tag.removesuffix("Chart"))
    return "unknown"


def _extract_y_axis_title(chart_root: ET.Element) -> str:
    for axis in chart_root.iter(f"{_C}valAx"):
        title = _extract_chart_text(axis.find(f"{_C}title"))
        if title:
            return title
    return ""


def _extract_y_axis_range(chart_root: ET.Element) -> list[float]:
    for axis in chart_root.iter(f"{_C}valAx"):
        scaling = axis.find(f"{_C}scaling")
        if scaling is None:
            continue
        min_node = scaling.find(f"{_C}min")
        max_node = scaling.find(f"{_C}max")
        if min_node is None or max_node is None:
            continue
        min_value = _float_attr(min_node, "val")
        max_value = _float_attr(max_node, "val")
        if min_value is None or max_value is None:
            continue
        return [min_value, max_value]
    return []


def _extract_chart_series(chart_root: ET.Element) -> list[ChartSeries]:
    plot_area = _find(chart_root, _PLOT_AREA)
    if plot_area is None:
        return []
    series: list[ChartSeries] = []
    for chart_node in plot_area:
        if chart_node.tag.rsplit("}", 1)[-1] not in _CHART_TAGS:
            continue
        for ser in chart_node.findall(f"{_C}ser"):
            name_range = _findtext(ser, _SER_NAME_REF)
            literal_name = _findtext(ser, _SER_NAME_CACHED)
            if literal_name is None:
                literal_name = _findtext(ser, _SER_NAME_TEXT)
            x_range = _first_text(ser, _SER_X_RANGES)
            y_range = _first_text(ser, _SER_Y_RANGES)
            series.append(
                ChartSeries(
                    name=literal_name or name_range or "",
                    name_range=name_range,
                    x_range=x_range,
                    y_range=y_range,
                )
            )
    return series


def _extract_chart_text(node: ET.Element | None) -> str | None:
    if node is None:
        return None
    texts = [
        t.text.strip()
        for t in list(node.iter(f"{_A}t")) + list(node.iter(f"{_C}v"))
        if t.text and t.text.strip()
    ]
    if not texts:
        return None
    return "".join(texts)


def _format_shape_type(node: ET.Element) -> str | None:
    prst = _find(node, _SP_GEOM)
    if prst is None:
        return None
    raw = prst.attrib.get("prst")
    if not raw:
        return None
    label = _SHAPE_TYPE_MAP.get(raw, raw)
    c_nv_sp_pr = _find(node, _SP_PROPS)
    is_text_box = c_nv_sp_pr is not None and c_nv_sp_pr.attrib.get("txBox") == "1"
    prefix = "TextBox" if is_text_box else "AutoShape"
    return f"{prefix}-{label}"


def _parse_xfrm(
    xfrm: ET.Element | None,
) -> tuple[int | None, int | None, int | None, int | None, float | None, bool, bool]:
    if xfrm is None:
        return (None, None, None, None, None, False, False)
    off = xfrm.find(f"{_A}off")
    ext = xfrm.find(f"{_A}ext")
    left = emu_to_points(off.attrib.get("x")) if off is not None else None
    top = emu_to_points(off.attrib.get("y")) if off is not None else None
    width = emu_to_points(ext.attrib.get("cx")) if ext is not None else None
    height = emu_to_points(ext.attrib.get("cy")) if ext is not None else None
    rotation = None
    raw_rot = xfrm.attrib.get("rot")
    if raw_rot is not None:
        try:
            rotation = float(raw_rot) / 60000.0
        except ValueError:
            rotation = None
    return (
        left,
        top,
        width,
        height,
        rotation,
        xfrm.attrib.get("flipH") == "1",
        xfrm.attrib.get("flipV") == "1",
    )


def _merge_anchor_geometry(
    anchor: ET.Element,
    left: int | None,
    top: int | None,
    width: int | None,
    height: int | None,
    metrics: SheetMetrics,
) -> tuple[int | None, int | None, int | None, int | None]:
    """Prefer child-transform position when sized; anchors fill the gaps."""
    a_left, a_top, a_width, a_height = _parse_anchor_geometry(anchor, metrics)
    if width not in {None, 0} and height not in {None, 0}:
        resolved_left = left if left is not None else a_left
        resolved_top = top if top is not None else a_top
    else:
        resolved_left = a_left if a_left is not None else left
        resolved_top = a_top if a_top is not None else top
    resolved_width = width if width not in {None, 0} else a_width
    resolved_height = height if height not in {None, 0} else a_height
    return (resolved_left, resolved_top, resolved_width, resolved_height)


def _parse_anchor_geometry(
    anchor: ET.Element, metrics: SheetMetrics
) -> tuple[int | None, int | None, int | None, int | None]:
    tag = anchor.tag.rsplit("}", 1)[-1]
    if tag == "absoluteAnchor":
        pos = anchor.find(f"{_XDR}pos")
        ext = anchor.find(f"{_XDR}ext")
        return (
            emu_to_points(pos.attrib.get("x")) if pos is not None else None,
            emu_to_points(pos.attrib.get("y")) if pos is not None else None,
            emu_to_points(ext.attrib.get("cx")) if ext is not None else None,
            emu_to_points(ext.attrib.get("cy")) if ext is not None else None,
        )
    if tag == "oneCellAnchor":
        left, top = _marker_to_points(anchor.find(f"{_XDR}from"), metrics)
        ext = anchor.find(f"{_XDR}ext")
        return (
            left,
            top,
            emu_to_points(ext.attrib.get("cx")) if ext is not None else None,
            emu_to_points(ext.attrib.get("cy")) if ext is not None else None,
        )
    if tag == "twoCellAnchor":
        start = _marker_to_points(anchor.find(f"{_XDR}from"), metrics)
        end = _marker_to_points(anchor.find(f"{_XDR}to"), metrics)
        if start[0] is None or start[1] is None or end[0] is None or end[1] is None:
            return (None, None, None, None)
        return (
            start[0],
            start[1],
            max(end[0] - start[0], 0),
            max(end[1] - start[1], 0),
        )
    return (None, None, None, None)


def _marker_to_points(
    marker: ET.Element | None, metrics: SheetMetrics
) -> tuple[int | None, int | None]:
    if marker is None:
        return (None, None)
    col = _find_int_text(marker, f"{_XDR}col")
    col_off = _find_int_text(marker, f"{_XDR}colOff")
    row = _find_int_text(marker, f"{_XDR}row")
    row_off = _find_int_text(marker, f"{_XDR}rowOff")
    if col is None or row is None:
        return (None, None)
    left = int(round(metrics.column_offset_points(col) + (col_off or 0) / 12700.0))
    top = int(round(metrics.row_offset_points(row) + (row_off or 0) / 12700.0))
    return (left, top)


def _extract_text(node: ET.Element | None) -> str:
    if node is None:
        return ""
    return "".join(t.text or "" for t in node.iter(f"{_A}t")).strip()


def _find(node: ET.Element, path: tuple[str, ...]) -> ET.Element | None:
    """``node.find("/".join(path))`` for a path of child tags, walked with
    the C child lookups instead of ElementPath: the first match in document
    order, so a repeated parent without the next tag hands on to its next
    sibling."""
    if len(path) == 1:
        return node.find(path[0])
    rest = path[1:]
    for child in node.findall(path[0]):
        found = _find(child, rest)
        if found is not None:
            return found
    return None


def _findtext(node: ET.Element, path: tuple[str, ...]) -> str | None:
    """``node.findtext("/".join(path), default=None)``."""
    found = _find(node, path)
    return None if found is None else found.text or ""


def _find_int_text(node: ET.Element | None, path: str) -> int | None:
    if node is None:
        return None
    raw = node.findtext(path, default=None)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        return None


def _first_text(node: ET.Element, paths: tuple[tuple[str, ...], ...]) -> str | None:
    for path in paths:
        value = _findtext(node, path)
        if value is not None:
            return value
    return None


def _int_attr(node: ET.Element | None, attr: str) -> int | None:
    if node is None:
        return None
    raw = node.attrib.get(attr)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        return None


def _float_attr(node: ET.Element | None, attr: str) -> float | None:
    if node is None:
        return None
    raw = node.attrib.get(attr)
    if raw is None:
        return None
    try:
        return float(raw)
    except ValueError:
        return None
