"""Every top-level definition in ``exstruct_ray/`` has a caller outside the tests.

A top-level ``def`` or ``class`` whose name appears nowhere in the engine,
``scripts/``, ``__ray_entry__.py`` or ``perfbench/`` (its tests excluded)
except on its own definition line is code that only tests run. Names are
Python NAME tokens, so a mention in a string or a comment is not a caller.
Names are matched across modules, so a definition shares its callers with
any other of the same name.
"""

from __future__ import annotations

import ast
import functools
import io
import re
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENGINE = ROOT / "exstruct_ray"
SCANNED = [ENGINE, ROOT / "scripts", ROOT / "__ray_entry__.py", ROOT / "perfbench"]

# "<path under exstruct_ray/>:<name>" -> why it stays. No entry has a
# non-Python caller: each is a known test-only definition, kept until its
# deletion (with the tests that call it) lands. Remove an entry with it.
ALLOWED: dict[str, str] = {
    "functions/series.py:parse_series_formula": "tests/test_api_views.py only",
    "ops/bpe.py:bpe_train": "tests/test_line_dedup_bpe.py only",
    "ops/media.py:extract_media_features": "tests of media, render and task stages only",
    "ops/text.py:_detect_lang_one": "the per-row reference tests hold _lang_batch to",
    "readers.py:read_cells": "tests/test_readers.py only",
    "readers.py:read_formulas": "tests/test_readers.py only",
    "readers.py:read_range": "tests/test_readers.py only",
    "readers.py:read_span_chunk": "tests/test_readers.py only",
    "render/__init__.py:render_corpus": "tests of render and task stages only",
}


def _sources():
    for root in SCANNED:
        paths = [root] if root.is_file() else sorted(root.rglob("*.py"))
        for path in paths:
            if "tests" not in path.relative_to(ROOT).parts:
                yield path, path.read_text(encoding="utf-8")


def _names(src: str):
    """(line, name) of every NAME token, and of every name used inside an
    f-string's replacement fields (one STRING token before Python 3.12)."""
    for tok in tokenize.generate_tokens(io.StringIO(src).readline):
        if tok.type == tokenize.NAME:
            yield tok.start[0], tok.string
        elif tok.type == tokenize.STRING and "f" in re.match(r"\w*", tok.string)[0].lower():
            for node in ast.walk(ast.parse(tok.string, mode="eval")):
                if isinstance(node, ast.Name):
                    yield tok.start[0], node.id
                elif isinstance(node, ast.Attribute):
                    yield tok.start[0], node.attr


@functools.cache
def _orphans() -> frozenset[str]:
    uses: Counter = Counter()
    on_def_line: Counter = Counter()
    defs = []
    for path, src in _sources():
        lines: dict[int, Counter] = {}
        for line, name in _names(src):
            uses[name] += 1
            lines.setdefault(line, Counter())[name] += 1
        if path.is_relative_to(ENGINE):
            for node in ast.parse(src).body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    if node.name.startswith("__") and node.name.endswith("__"):
                        continue  # a hook the interpreter calls (module __getattr__)
                    on_def_line[node.name] += lines[node.lineno][node.name]
                    defs.append((f"{path.relative_to(ENGINE).as_posix()}:{node.name}", node.name))
    return frozenset(key for key, name in defs if uses[name] <= on_def_line[name])


def test_no_definition_is_reached_only_by_tests():
    assert sorted(_orphans() - set(ALLOWED)) == []


def test_allowlist_entries_are_still_orphans():
    # An entry whose definition gained a caller, or is gone, is stale.
    assert sorted(set(ALLOWED) - _orphans()) == []
