"""Engine map stages run as tasks: a finished query holds no CPU.

A Ray Data actor pool keeps its workers, and their CPUs, after the
execution ends until Python's cyclic GC collects the executor graph; a
program that runs several such queries back to back on a small cluster
waits forever for a CPU. Task stages release each CPU as the task ends.
"""

import gc
import time

import numpy as np
import pandas as pd


def _wait_all_cpus_free(ray, timeout_s: float = 10.0) -> float:
    total = ray.cluster_resources()["CPU"]
    deadline = time.monotonic() + timeout_s
    free = ray.available_resources().get("CPU", 0.0)
    while free < total and time.monotonic() < deadline:
        time.sleep(0.1)
        free = ray.available_resources().get("CPU", 0.0)
    return free


def test_back_to_back_stages_release_cpus_without_gc(ray_session):
    import ray
    import ray.data

    from exstruct_ray.datagen.corpus import generate_corpus_table
    from exstruct_ray.edit import patch_corpus
    from exstruct_ray.ops.ann import ivf_topk
    from exstruct_ray.ops.dedup import minhash_dedup_pairs
    from exstruct_ray.ops.media import extract_media_features
    from exstruct_ray.render import render_corpus

    texts = [
        "the quick brown fox jumps over the lazy dog",
        "the quick brown fox jumps over the lazy dog",
        "completely different content about engines",
    ]
    docs = ray.data.from_items([{"doc_id": i, "text": t} for i, t in enumerate(texts)])
    vecs = np.random.RandomState(0).standard_normal((64, 16))
    vec_ds = ray.data.from_items(
        [{"vec_id": i, "embedding": v.tolist()} for i, v in enumerate(vecs)]
    )
    media = ray.data.from_items(
        [{"media_id": i, "payload": bytes([i]) * 100} for i in range(8)]
    )
    corpus = ray.data.from_arrow(generate_corpus_table(4, seed=42))
    patch_ops = [{"op": "set_value", "sheet": "Sheet1", "cell": "A1", "value": "x"}]

    def minhash():
        return minhash_dedup_pairs(docs, jaccard_threshold=0.5)

    runs = [("minhash_dedup_pairs", minhash)] * 4
    runs += [
        ("ivf_topk", lambda: ivf_topk(vec_ds, [0, 1], vecs[:2], k=3, dim=16)),
        ("extract_media_features", lambda: extract_media_features(media, batch_size=4)),
        ("render_corpus", lambda: render_corpus(corpus, fmt="png", batch_size=2)),
        ("patch_corpus", lambda: patch_corpus(corpus, patch_ops, batch_size=2)),
    ]

    gc.collect()
    total = ray.cluster_resources()["CPU"]
    assert _wait_all_cpus_free(ray) == total
    gc.disable()
    try:
        for name, run in runs:
            result = run()
            if not isinstance(result, pd.DataFrame):
                result = result.to_pandas()
            assert len(result) > 0, name
            free = _wait_all_cpus_free(ray)
            assert free == total, f"{name}: {free}/{total} CPUs free 10 s after"
    finally:
        gc.enable()
