"""``python scripts/doc_cost.py BASE_DIR [NEW_DIR] [--reps 7] [--seed 1]``:
imports ``exstruct_ray`` from two checkouts into one process (NEW_DIR: this
script's), asserts byte-identical spans on every parts_mix and giant_explode
document of ``--seed``, then times each document with the versions
interleaved, best of ``--reps``, and prints p50, sum and per-family p50 µs."""

import argparse
import gc
import statistics
import sys
import time
from pathlib import Path


def _purge() -> None:
    for name in [k for k in sys.modules if k.split(".")[0] in ("exstruct_ray", "perfbench")]:
        del sys.modules[name]


def load(root: Path, docs: list):
    """Import ``root``'s engine, run it over ``docs`` (doing its lazy imports)."""
    _purge()
    sys.path.insert(0, str(root))
    from exstruct_ray.config import ExtractOptions
    from exstruct_ray.extract.document import extract_document_spans_columnar as fn
    opts = ExtractOptions().resolved()
    outs = [(fn(k, t, m, opts, *out), out) for _f, k, t, m in docs for out in [([], [], [])]]
    sys.path.remove(str(root))
    return fn, opts, {k: v for k, v in sys.modules.items() if k.split(".")[0] == "exstruct_ray"}, outs


def corpus(root: Path, seed: int) -> list:
    """(family, kinds, texts, media_refs) of every benchmark document."""
    sys.path.insert(0, str(root))
    from exstruct_ray.datagen.corpus import FAMILIES
    from perfbench.loadgen import build_rows, is_giant
    docs = []
    for wl in ("parts_mix", "giant_explode"):
        for i, row in enumerate(build_rows(wl, seed)):
            fam = f"giant:{wl}" if is_giant(wl, i) else FAMILIES[i % len(FAMILIES)][0]
            docs.append((fam, *([s[f] for s in row["spans"]] for f in ("kind", "text", "media_ref"))))
    sys.path.remove(str(root))
    return docs


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("base", type=Path)
    ap.add_argument("new", type=Path, nargs="?", default=Path(__file__).resolve().parents[1])
    ap.add_argument("--reps", type=int, default=7)
    ap.add_argument("--seed", type=int, default=1)
    a = ap.parse_args()
    docs = corpus(a.new.resolve(), a.seed)
    gc.set_threshold(200_000, 100, 100)  # as the extraction workers run
    sides = [load(a.base.resolve(), docs), load(a.new.resolve(), docs)]
    diff = sum(x != y for x, y in zip(sides[0][3], sides[1][3]))
    print(f"{len(docs)} documents, {diff} with different spans")
    assert diff == 0
    best = [[float("inf")] * len(docs) for _ in sides]
    for rep in range(a.reps):
        for d, (_fam, kinds, texts, refs) in enumerate(docs):
            for s in (0, 1) if (rep + d) % 2 else (1, 0):
                fn, opts, mods, _ = sides[s]
                _purge()
                sys.modules.update(mods)
                t0 = time.perf_counter()
                fn(kinds, texts, refs, opts, [], [], [])
                best[s][d] = min(best[s][d], time.perf_counter() - t0)
    fams = {f: [i for i, d in enumerate(docs) if d[0] == f] for f in sorted({d[0] for d in docs})}
    rows = [("p50 (us)", range(len(docs)), statistics.median),
            ("sum (ms)", range(len(docs)), lambda v: sum(v) / 1e3)]
    rows += [(f"{f[:18]} ({len(idx)})", idx, statistics.median) for f, idx in fams.items()]
    print(f"{'':24}{'base':>10}{'new':>10}{'new/base':>10}")
    for label, idx, pick in rows:
        b, n = (pick([best[s][i] * 1e6 for i in idx]) for s in (0, 1))
        print(f"{label:24}{b:10.1f}{n:10.1f}{n / b:10.3f}")


if __name__ == "__main__":
    main()
