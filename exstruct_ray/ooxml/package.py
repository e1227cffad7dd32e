"""Virtual OOXML package: part path -> content, with relationship resolution.

The engine's input rows are interleaved span sequences whose spans carry
OOXML part XML (``media_ref`` = part path, ``text`` = content). This class
reconstitutes the "zip" view of a workbook from those spans — or from real
.xlsx bytes — so every parser reads parts exactly once per document.

Relationship/path semantics parity:
/root/reference/src/exstruct/core/ooxml_drawing.py:863-921
(`_read_relationships`, `_rels_path`, `_normalize_zip_path`).
"""

from __future__ import annotations

import io
import xml.etree.ElementTree as ET
from typing import NamedTuple
import zipfile

_REL_NS = "{http://schemas.openxmlformats.org/package/2006/relationships}"

WORKSHEET_REL_TYPE = (
    "http://schemas.openxmlformats.org/officeDocument/2006/relationships/worksheet"
)
DRAWING_REL_TYPE = (
    "http://schemas.openxmlformats.org/officeDocument/2006/relationships/drawing"
)
CHART_REL_TYPE = (
    "http://schemas.openxmlformats.org/officeDocument/2006/relationships/chart"
)
HYPERLINK_REL_TYPE = (
    "http://schemas.openxmlformats.org/officeDocument/2006/relationships/hyperlink"
)
DIAGRAM_DATA_REL_TYPE = (
    "http://schemas.openxmlformats.org/officeDocument/2006/relationships/diagramData"
)


class Relationship(NamedTuple):
    target: str
    relationship_type: str


def rels_path(source_path: str) -> str:
    """Return the relationships part path for a source part
    (``posixpath.join(head, "_rels", tail + ".rels")`` of its split)."""
    cut = source_path.rfind("/") + 1
    head = source_path[:cut]
    tail = source_path[cut:]
    stripped = head.rstrip("/")
    if stripped:
        return f"{stripped}/_rels/{tail}.rels"
    return f"{head}_rels/{tail}.rels"  # no directory, or only slashes


def normalize_zip_path(base_dir: str, target: str) -> str:
    """Normalize a relative OOXML target against a base directory: the
    joined path without empty, ``.`` and ``..`` segments (``..`` drops the
    segment before it)."""
    raw = target if target.startswith("/") else f"{base_dir}/{target}"
    raw = raw.lstrip("/")
    if "//" not in raw and "/." not in raw and raw[:1] != "." and raw[-1:] != "/":
        return raw
    parts: list[str] = []
    for part in raw.split("/"):
        if part == "..":
            if parts:
                parts.pop()
        elif part and part != ".":
            parts.append(part)
    return "/".join(parts)


class VirtualPackage:
    """Read-only mapping of OOXML part paths to text content."""

    def __init__(self, parts: dict[str, str]):
        self._parts = parts
        self._rels_cache: dict[str, dict[str, Relationship]] = {}
        self._xml_cache: dict[str, ET.Element] = {}

    @classmethod
    def from_spans(
        cls, kinds: list[str], texts: list[str], media_refs: list[str]
    ) -> "VirtualPackage":
        """Build from parallel span arrays; ``media_ref`` is the part path."""
        parts: dict[str, str] = {}
        for kind, text, ref in zip(kinds, texts, media_refs):
            if not ref:
                continue
            parts[ref.lstrip("/")] = text if text is not None else ""
        return cls(parts)

    @classmethod
    def from_xlsx_bytes(cls, data: bytes) -> "VirtualPackage":
        """Build from real .xlsx/.xlsm bytes (each part decoded as UTF-8)."""
        parts: dict[str, str] = {}
        with zipfile.ZipFile(io.BytesIO(data)) as zf:
            for name in zf.namelist():
                if name.endswith("/"):
                    continue
                raw = zf.read(name)
                try:
                    parts[name] = raw.decode("utf-8")
                except UnicodeDecodeError:
                    # Binary media parts are kept as latin-1 round-trippable text.
                    parts[name] = raw.decode("latin-1")
        return cls(parts)

    def __contains__(self, path: str) -> bool:
        return path in self._parts

    def names(self) -> list[str]:
        return list(self._parts)

    def read_text(self, path: str) -> str:
        return self._parts[path]

    def read_xml(self, path: str) -> ET.Element:
        cached = self._xml_cache.get(path)
        if cached is None:
            cached = ET.fromstring(self._parts[path])
            self._xml_cache[path] = cached
        return cached

    def relationships(self, source_path: str) -> dict[str, Relationship]:
        """Parse (and cache) the .rels part owned by ``source_path``."""
        cached = self._rels_cache.get(source_path)
        if cached is not None:
            return cached
        rpath = rels_path(source_path)
        rel_map: dict[str, Relationship] = {}
        if rpath in self._parts:
            base_dir = source_path[: max(source_path.rfind("/"), 0)]
            root = self.read_xml(rpath)
            for rel in root.iter(f"{_REL_NS}Relationship"):
                rel_id = rel.attrib.get("Id")
                target = rel.attrib.get("Target")
                rel_type = rel.attrib.get("Type")
                if not rel_id or not target or not rel_type:
                    continue
                if rel.attrib.get("TargetMode") == "External":
                    resolved = target
                else:
                    resolved = normalize_zip_path(base_dir, target)
                rel_map[rel_id] = Relationship(resolved, rel_type)
        self._rels_cache[source_path] = rel_map
        return rel_map
