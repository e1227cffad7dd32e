"""Tests of the extraction benchmark itself.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
The smoke runs start Ray and take about two minutes in total.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, ROOT)

from perfbench import jobs, loadgen, run, tracing  # noqa: E402

WORKLOADS = sorted(loadgen.WORKLOADS)
TINY_DOCS = {"parts_mix": 97, "giant_explode": 24, "xlsx_bytes": 97}


def _declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload and the per-run repetitions."""
    for name, docs in TINY_DOCS.items():
        params = dict(loadgen.WORKLOADS[name], docs=docs)
        params.pop("min_jobs", None)
        monkeypatch.setitem(loadgen.WORKLOADS, name, params)
    monkeypatch.setattr(run, "SETUPS", 1)
    monkeypatch.setattr(run, "MIN_JOBS", 1)


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in _declared()["workloads"]) == WORKLOADS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_input_digest(tmp_path, monkeypatch, workload):
    params = dict(loadgen.WORKLOADS[workload], docs=TINY_DOCS[workload])
    monkeypatch.setitem(loadgen.WORKLOADS, workload, params)
    _, a = loadgen.generate(str(tmp_path / "a"), workload, 7)
    _, b = loadgen.generate(str(tmp_path / "b"), workload, 7)
    _, c = loadgen.generate(str(tmp_path / "c"), workload, 8)
    assert a["input_digest"] == b["input_digest"]
    assert a["doc_ids"] == b["doc_ids"] and a["giants"] == b["giants"]
    assert a["input_digest"] != c["input_digest"]
    assert a["giants"], "every workload carries giant documents"


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_metric_and_passes_checks(tiny, capsys, workload, trace):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= TINY_DOCS[workload]
    declared = _declared()["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if trace:
        assert detail["layer_checks_ok"] is True
    else:
        assert detail["fail_share"] == 0.0
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


def test_tracer_self_time_telescopes_to_roots():
    tracer = tracing.Tracer()
    with tracer.span("root", "a"):
        with tracer.span("child", "b"):
            with tracer.span("grandchild", "a"):
                pass
        with tracer.span("child2", "c"):
            pass
    assert sum(tracer.self_s.values()) == pytest.approx(tracer.roots_s(), rel=1e-9)
    assert [s[4] for s in tracer.spans] == [-1, 0, 1, 0]


def test_tracer_restores_wrapped_attributes():
    from exstruct_ray.extract import document
    from exstruct_ray.ooxml.package import VirtualPackage

    before = (document.parse_sheet, VirtualPackage.__dict__["from_spans"])
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    assert document.parse_sheet is not before[0]
    tracer.restore()
    assert (document.parse_sheet, VirtualPackage.__dict__["from_spans"]) == before


def test_nearest_rank_percentile():
    values = [float(v) for v in range(1, 101)]
    assert jobs.percentile(values, 0.5) == 50.0
    assert jobs.percentile(values, 0.99) == 99.0
    # 30 giants in 2,910 docs: p99 is always a giant.
    docs = [1.0] * 2880 + [40.0] * 30
    assert jobs.percentile(docs, 0.99) == 40.0


@pytest.mark.parametrize(
    "name, role",
    [
        ("ReadParquet", "read"),
        ("ReadBinary", "read"),
        ("MapBatches(extract_batch)->Write", "extract"),
        ("MapBatches(split_or_extract)->MapBatches(sheet_extract)->MapBatches(tag)", "extract"),
        ("MapBatches(extract_xlsx_batch)->Write", "extract"),
        ("SortMap", "exchange"),
        ("SortReduce", "exchange"),
        ("MapBatches(assemble_bucket)->Write", "assemble"),
        ("Project", None),
    ],
)
def test_operator_roles(name, role):
    assert tracing.op_role(name) == role
