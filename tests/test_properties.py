"""Hypothesis property tests for the load-bearing pure functions."""

from collections import deque

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from exstruct_ray.functions.a1 import (
    alpha_to_col_index,
    col_index_to_alpha,
    parse_range_zero_based,
)
from exstruct_ray.functions.canonical import canonical_json, dict_without_empty_values
from exstruct_ray.functions.coerce import coerce_numeric_preserve_format
from exstruct_ray.tables.detect import _components_bboxes, merge_rectangles


class TestCoercionProperties:
    @given(st.integers(min_value=-(10**15), max_value=10**15))
    def test_int_roundtrip(self, n):
        assert coerce_numeric_preserve_format(str(n)) == n

    @given(st.text(alphabet="abcxyz!@# ", max_size=20))
    def test_non_numeric_identity(self, s):
        assert coerce_numeric_preserve_format(s) == s

    @given(
        st.integers(min_value=0, max_value=10**9),
        st.integers(min_value=1, max_value=6),
    )
    def test_decimal_scale_preserved(self, whole, scale):
        raw = f"{whole}.{'25'[:1] * scale}"
        out = coerce_numeric_preserve_format(raw)
        assert isinstance(out, float)
        assert abs(out - float(raw)) < 1e-9


class TestA1Properties:
    @given(st.integers(min_value=0, max_value=20000))
    def test_alpha_roundtrip(self, idx):
        assert alpha_to_col_index(col_index_to_alpha(idx)) == idx

    @given(
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=0, max_value=200),
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=0, max_value=200),
    )
    def test_range_roundtrip(self, r1, c1, r2, c2):
        a1 = (
            f"{col_index_to_alpha(min(c1, c2))}{min(r1, r2) + 1}:"
            f"{col_index_to_alpha(max(c1, c2))}{max(r1, r2) + 1}"
        )
        bounds = parse_range_zero_based(a1)
        assert (bounds.r1, bounds.c1, bounds.r2, bounds.c2) == (
            min(r1, r2),
            min(c1, c2),
            max(r1, r2),
            max(c1, c2),
        )


def _brute_components(grid: np.ndarray, min_size: int):
    h, w = grid.shape
    visited = np.zeros_like(grid, dtype=bool)
    rects = []
    for i in range(h):
        for j in range(w):
            if not grid[i, j] or visited[i, j]:
                continue
            q = deque([(i, j)])
            visited[i, j] = True
            ys, xs = [i], [j]
            while q:
                y, x = q.popleft()
                for ny, nx in ((y + 1, x), (y - 1, x), (y, x + 1), (y, x - 1)):
                    if 0 <= ny < h and 0 <= nx < w and grid[ny, nx] and not visited[ny, nx]:
                        visited[ny, nx] = True
                        q.append((ny, nx))
                        ys.append(ny)
                        xs.append(nx)
            if len(ys) >= min_size:
                rects.append((min(ys), min(xs), max(ys), max(xs)))
    return rects


class TestLabelingProperties:
    @settings(max_examples=120, deadline=None)
    @given(
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=0, max_value=2**31 - 1),
        st.sampled_from([0.15, 0.5, 0.85]),
        st.sampled_from([1, 4]),
        st.sampled_from([1, 8]),
    )
    def test_run_length_equals_bfs(self, h, w, seed, density, min_size, stretch):
        """The vectorized labeling matches the reference-shaped per-cell BFS
        (boxes AND emission order) on arbitrary grids, including tall ones
        whose rows repeat (stretch > 1 repeats each row 1..stretch times)."""
        rng = np.random.RandomState(seed)
        grid = rng.rand(h, w) < density
        grid = np.repeat(grid, rng.randint(1, stretch + 1, size=h), axis=0)
        assert _components_bboxes(grid, min_size) == _brute_components(grid, min_size)


class TestMergeProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 15),
                st.integers(0, 15),
                st.integers(0, 8),
                st.integers(0, 8),
            ),
            max_size=8,
        )
    )
    def test_merge_never_loses_area(self, raw):
        rects = [(t, l, t + dh, l + dw) for t, l, dh, dw in raw]
        merged = merge_rectangles(rects)
        # every input rect is covered by some merged rect
        for t, l, b, r in rects:
            assert any(
                mt <= t and ml <= l and mb >= b and mr >= r
                for mt, ml, mb, mr in merged
            ), (rects, merged)


class TestCanonicalProperties:
    json_values = st.recursive(
        st.one_of(
            st.none(),
            st.booleans(),
            st.integers(-1000, 1000),
            st.text(max_size=8),
        ),
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.dictionaries(st.text(max_size=4), children, max_size=4),
        ),
        max_leaves=12,
    )

    @staticmethod
    def _reference_strip(obj):
        """The reference's exact expression (io/__init__.py:92-128) — note it
        is deliberately NOT idempotent ([[None]] -> [[]]); parity is the spec."""
        if isinstance(obj, dict):
            return {
                k: TestCanonicalProperties._reference_strip(v)
                for k, v in obj.items()
                if v not in [None, "", [], {}]
            }
        if isinstance(obj, list):
            return [
                TestCanonicalProperties._reference_strip(v)
                for v in obj
                if v not in [None, "", [], {}]
            ]
        return obj

    @settings(max_examples=150, deadline=None)
    @given(json_values)
    def test_strip_matches_reference_semantics(self, value):
        assert dict_without_empty_values(value) == self._reference_strip(value)

    @settings(max_examples=100, deadline=None)
    @given(json_values)
    def test_canonical_json_parses(self, value):
        import json

        text = canonical_json(value)
        parsed = json.loads(text)
        assert parsed == dict_without_empty_values(value) or (
            parsed is None and value is None
        )


class TestCellRowJson:
    """The cell_row formatter writes exactly what json.dumps writes."""

    _special_text = st.sampled_from(
        ['say "hi"', "back\\slash", "ctl\x00\x01\x1f\x7f", "line\u2028sep",
         "emoji \U0001F600", "lone \ud800 high", "\udfff", "", " "]
    )
    _cell_value = st.one_of(
        st.text(max_size=12),
        _special_text,
        st.integers(min_value=-(10**30), max_value=10**30),
        st.sampled_from(["-0.0", "0.0000001", "1.50", "-12.25", ".5", "3.0"]).map(
            coerce_numeric_preserve_format
        ),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    _col_key = st.one_of(
        st.integers(min_value=0, max_value=16383).map(str),
        st.integers(min_value=0, max_value=16383).map(col_index_to_alpha),
    )

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        st.integers(min_value=1, max_value=1_048_576),
        st.dictionaries(_col_key, _cell_value, min_size=1, max_size=8),
        st.one_of(
            st.none(),
            st.dictionaries(_col_key, st.one_of(st.text(max_size=20), _special_text),
                            max_size=4),
        ),
    )
    def test_matches_json_dumps(self, r, cells, links):
        import json

        from exstruct_ray.extract.document import cell_row_json
        from exstruct_ray.models import CellRow

        row = CellRow(r=r, c=cells, links=links)
        assert cell_row_json(row) == json.dumps(
            row.to_payload(), ensure_ascii=False, separators=(",", ":")
        )
