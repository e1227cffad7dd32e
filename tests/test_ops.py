"""Training-data operator tests: dedup, text analysis, ANN, media plumbing."""

import numpy as np
import pandas as pd
import pytest

from exstruct_ray.ops.dedup import (
    char_shingles,
    minhash_signature,
    ngram_jaccard,
    simhash_64,
    word_ngrams,
    _hash_params,
)
from exstruct_ray.ops.text import _detect_lang_one, rolling_fingerprints


class TestSketchPrimitives:
    def test_shingles_deterministic(self):
        a = char_shingles("hello world", 5)
        b = char_shingles("hello world", 5)
        assert sorted(a.tolist()) == sorted(b.tolist())
        assert char_shingles("", 5).tolist() == [0]

    def test_minhash_similarity_estimate(self):
        a_params = _hash_params(128)
        base = "the quick brown fox jumps over the lazy dog " * 20
        near = base[:-30] + "and runs far away quickly today"
        far = "completely different content about databases and queries " * 15
        sig_base = minhash_signature(char_shingles(base), *a_params)
        sig_near = minhash_signature(char_shingles(near), *a_params)
        sig_far = minhash_signature(char_shingles(far), *a_params)
        est_near = (sig_base == sig_near).mean()
        est_far = (sig_base == sig_far).mean()
        assert est_near > 0.6
        assert est_far < 0.2

    def test_simhash_hamming(self):
        a = simhash_64("the quick brown fox jumps over the lazy dog")
        b = simhash_64("the quick brown fox jumps over the lazy cat")
        c = simhash_64("totally unrelated words appear here instead")
        def hamming(x, y):
            return bin(x ^ y).count("1")
        assert hamming(a, b) < hamming(a, c)
        assert simhash_64("") == 0

    def test_ngram_jaccard(self):
        assert ngram_jaccard("a b c d e", "a b c d e") == 1.0
        assert ngram_jaccard("a b c d e", "v w x y z") == 0.0
        mid = ngram_jaccard("a b c d e f", "a b c d x y")
        assert 0.0 < mid < 1.0
        assert word_ngrams("", 3) == set()

    def test_rolling_fingerprints(self):
        fps = rolling_fingerprints("abcdefghij" * 10, window=16)
        assert len(fps) == 100 - 16 + 1
        assert fps == rolling_fingerprints("abcdefghij" * 10, window=16)
        assert rolling_fingerprints("short", window=32) == []

    def test_lang_detect(self):
        assert _detect_lang_one("the cat and the dog sat in the house") == "en"
        assert _detect_lang_one("der Hund und die Katze ist nicht da") == "de"
        assert _detect_lang_one("le chat est dans la maison pour le moment") == "fr"
        assert _detect_lang_one("12345 67890") == "unknown"
        assert _detect_lang_one("") == "unknown"

    def test_lang_detect_widened_cascade(self):
        # round-3 widened languages (stopword lists, same marker design)
        assert _detect_lang_one("ik heb het niet met een boek van hem") == "nl"
        assert _detect_lang_one("não foi uma boa ideia para os dois") == "pt"
        assert _detect_lang_one("och det är som att se på den") == "sv"
        assert _detect_lang_one("bu bir kitap ve ben için daha gibi") == "tr"
        assert _detect_lang_one("yang ini dengan untuk tidak dari pada") == "id"
        assert _detect_lang_one("и он сказал что это не на по как") == "ru"
        assert _detect_lang_one("se on mutta kun hän oli joka") == "fi"
        # marker table and vectorized batch path agree on the new languages
        import pandas as pd

        from exstruct_ray.ops.text import _lang_batch

        texts = [
            "ik heb het niet met een boek van hem",
            "и он сказал что это не на по как",
            "the cat and the dog sat in the house",
        ]
        out = _lang_batch(pd.DataFrame({"doc_id": [1, 2, 3], "text": texts}))
        assert out["detected_lang"].tolist() == ["nl", "ru", "en"]


class TestRayOps:
    @pytest.fixture(scope="class")
    def docs_ds(self, ray_session):
        import ray.data

        texts = [
            "the quick brown fox jumps over the lazy dog",
            "the quick brown fox jumps over the lazy dog",  # exact dup of 0
            "the quick brown fox jumps over the lazy cat today",  # near dup
            "completely different content about engines",
            "",
        ]
        return ray.data.from_items(
            [{"doc_id": i, "text": t} for i, t in enumerate(texts)]
        )

    def test_exact_dedup(self, docs_ds):
        from exstruct_ray.ops.dedup import exact_dedup

        out = exact_dedup(docs_ds).to_pandas().sort_values("doc_id")
        assert out["doc_id"].tolist() == [0, 2, 3, 4]
        assert out.set_index("doc_id")["dup_count"].to_dict() == {0: 2, 2: 1, 3: 1, 4: 1}

    def test_minhash_pairs(self, docs_ds):
        from exstruct_ray.ops.dedup import minhash_dedup_pairs

        pairs = minhash_dedup_pairs(docs_ds, jaccard_threshold=0.5).to_pandas()
        pair_set = {tuple(sorted((a, b))) for a, b in zip(pairs["doc_a"], pairs["doc_b"])}
        assert (0, 1) in pair_set  # exact dup must be found
        assert all((3 not in p) for p in pair_set)  # unrelated doc never pairs

    def test_text_stats(self, docs_ds):
        from exstruct_ray.ops.text import add_text_stats

        out = add_text_stats(docs_ds).to_pandas().sort_values("doc_id")
        first = out.iloc[0]
        assert first["n_tokens"] == 9
        assert first["n_chars"] == len("the quick brown fox jumps over the lazy dog")
        empty = out.iloc[-1]
        assert empty["n_tokens"] == 0 and pd.isna(empty["alpha_ratio"])

    def test_ann_topk_matches_numpy(self, ray_session):
        import ray.data

        from exstruct_ray.ops.ann import brute_force_topk

        rng = np.random.RandomState(0)
        vecs = rng.standard_normal((200, 16)).astype(np.float32)
        ds = ray.data.from_items(
            [{"vec_id": i, "embedding": v.tolist()} for i, v in enumerate(vecs)]
        )
        queries = vecs[:3].astype(np.float64)
        out = brute_force_topk(ds, [0, 1, 2], queries, k=5)
        # Exact reference: full cosine matrix
        norm = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
        qnorm = queries / np.linalg.norm(queries, axis=1, keepdims=True)
        sims = norm @ qnorm.T
        for qi in range(3):
            expected = np.argsort(-sims[:, qi], kind="stable")[:5].tolist()
            got = out[out["query_id"] == qi].sort_values("rank")["vec_id"].tolist()
            assert got[0] == qi  # self is the top hit
            assert set(got) == set(expected)

    def test_media_feature_plumbing(self, ray_session):
        import ray.data

        from exstruct_ray.ops.media import extract_media_features

        ds = ray.data.from_items(
            [
                {"media_id": i, "payload": bytes([i]) * 100, "media_type": "image"}
                for i in range(8)
            ]
        )
        out = extract_media_features(ds, batch_size=4).to_pandas()
        assert len(out) == 8
        assert all(len(f) == 3 for f in out["feature"])
        # deterministic stub: same payload -> same feature
        out2 = extract_media_features(ds, batch_size=4).to_pandas()
        merged = out.merge(out2, on="media_id")
        assert all(
            list(a) == list(b) for a, b in zip(merged["feature_x"], merged["feature_y"])
        )


class TestLabelPropagation:
    def test_matches_union_find_incl_long_chain(self, ray_session):
        """One run over disjoint components: a random graph AND a path
        graph (worst-case diameter; pointer jumping converges in
        O(log d) rounds) — result equals the driver union-find."""
        import random

        import pandas as pd
        import ray.data

        from exstruct_ray.ops.dedup import dedup_groups, label_propagation_groups

        rng = random.Random(5)
        edges = [tuple(sorted(rng.sample(range(40), 2))) for _ in range(25)]
        edges = [(a, b) for a, b in edges if a != b]
        # chain 100-101-...-108 as a separate component
        edges += [(100 + i, 101 + i) for i in range(8)]
        pairs = pd.DataFrame(
            {"doc_a": [a for a, _ in edges], "doc_b": [b for _, b in edges]}
        )
        expected = dedup_groups(pairs)
        got = label_propagation_groups(ray.data.from_pandas(pairs))
        pd.testing.assert_frame_equal(
            got.reset_index(drop=True), expected.reset_index(drop=True)
        )
        assert (got[got["doc_id"] >= 100]["group_id"] == 100).all()


class TestKMeans:
    def test_clusters_planted_blobs_and_is_deterministic(self, ray_session):
        import numpy as np
        import ray.data

        from exstruct_ray.ops.kmeans import kmeans_fit

        rng = np.random.RandomState(3)
        dim = 8
        blobs = np.array(
            [[10.0] * dim, [-10.0] * dim, [10.0] * 4 + [-10.0] * 4]
        )
        rows = []
        for i in range(90):
            center = blobs[i % 3]
            rows.append(
                {"vec_id": i, "embedding": (center + rng.randn(dim)).tolist()}
            )

        def fit():
            return kmeans_fit(
                ray.data.from_items(rows), k=3, n_iter=4, dim=dim
            )

        centroids, counts = fit()
        assert counts.sum() == 90
        # each planted blob center is ~exactly recovered (μ-unit ints)
        recovered = centroids / 1e6
        for center in blobs:
            dists = np.linalg.norm(recovered - center, axis=1)
            assert dists.min() < 1.0, (center, recovered)
        # deterministic across runs (integer arithmetic, fixed init)
        centroids2, counts2 = fit()
        assert np.array_equal(centroids, centroids2)
        assert np.array_equal(counts, counts2)

    def test_empty_cluster_carries_previous_centroid(self, ray_session):
        import numpy as np
        import ray.data

        from exstruct_ray.ops.kmeans import kmeans_fit, quantize_embeddings

        dim = 4
        # vec 3 duplicates vec 0, so every point ties between clusters 0
        # and 3 and the lowest-id tie-break starves cluster 3 — it must
        # carry its init centroid through every iteration, never NaN/zero
        rows = [
            {"vec_id": 0, "embedding": [0.5] * dim},
            {"vec_id": 1, "embedding": [100.0] * dim},
            {"vec_id": 2, "embedding": [-100.0] * dim},
            {"vec_id": 3, "embedding": [0.5] * dim},
            {"vec_id": 4, "embedding": [0.4] * dim},
            {"vec_id": 5, "embedding": [99.0] * dim},
        ]
        centroids, counts = kmeans_fit(
            ray.data.from_items(rows), k=4, n_iter=1, dim=dim
        )
        assert counts[3] == 0
        init3 = quantize_embeddings(np.array([[0.5] * dim]))[0]
        assert np.array_equal(centroids[3], init3)
        # in the NEXT iteration the carried centroid legitimately wins its
        # duplicates back from cluster 0 (whose centroid moved toward 0.4)
        _, counts2 = kmeans_fit(ray.data.from_items(rows), k=4, n_iter=2, dim=dim)
        assert counts2[3] == 2


class TestDedupGroups:
    def test_union_find_groups(self):
        import pandas as pd

        from exstruct_ray.ops.dedup import dedup_groups

        pairs = pd.DataFrame(
            {"doc_a": [1, 2, 5, 7], "doc_b": [2, 3, 6, 1]}
        )  # components {1,2,3,7} and {5,6}
        out = dedup_groups(pairs)
        groups = out.groupby("group_id")["doc_id"].apply(set).to_dict()
        assert groups == {1: {1, 2, 3, 7}, 5: {5, 6}}
        canon = out[out["is_canonical"]]["doc_id"].tolist()
        assert canon == [1, 5]

    def test_empty_pairs(self):
        import pandas as pd

        from exstruct_ray.ops.dedup import dedup_groups

        out = dedup_groups(pd.DataFrame({"doc_a": [], "doc_b": []}))
        assert out.empty

    def test_minhash_pairs_match_band_reference(self, ray_session):
        """minhash_dedup_pairs returns exactly the pairs a driver-side
        reference finds: every pair of docs that shares a band key and
        whose estimated Jaccard reaches the threshold, with that estimate."""
        import itertools

        import ray.data

        from exstruct_ray.ops.dedup import _band_keys, minhash_dedup_pairs

        docs = [
            {"doc_id": i, "text": f"completely unrelated text number {i} "
                                   f"with filler words {i * 17}"}
            for i in range(30)
        ]
        docs.append({"doc_id": 100, "text": docs[0]["text"] + " tail"})
        a, b = _hash_params(64)
        sigs = np.stack(
            [minhash_signature(char_shingles(d["text"], 5), a, b) for d in docs]
        )
        keys = _band_keys(sigs, 16, 4)
        expected, candidates = {}, 0
        for i, j in itertools.combinations(range(len(docs)), 2):
            if set(keys[:, i]) & set(keys[:, j]):
                candidates += 1
                est = float((sigs[i] == sigs[j]).mean())
                if est >= 0.7:
                    ids = sorted((docs[i]["doc_id"], docs[j]["doc_id"]))
                    expected[tuple(ids)] = est

        out = minhash_dedup_pairs(
            ray.data.from_items(docs), jaccard_threshold=0.7
        ).to_pandas()
        got = {
            (int(x), int(y)): float(e)
            for x, y, e in zip(out["doc_a"], out["doc_b"], out["est_jaccard"])
        }
        assert len(got) == len(out)  # no pair twice
        assert got == expected
        assert (0, 100) in expected
        assert candidates > len(expected)  # the threshold dropped some

    def test_auto_routing_by_pair_count(self, ray_session, monkeypatch):
        """dedup_groups_auto_ds: small pair sets take the driver union-find,
        big ones the distributed label propagation — same output."""
        import pandas as pd
        import ray.data

        from exstruct_ray.ops import dedup as dedup_mod
        from exstruct_ray.ops.shuffle import to_frame

        pairs = pd.DataFrame({"doc_a": [1, 2, 5], "doc_b": [2, 3, 6]})
        calls = []
        orig_uf = dedup_mod.dedup_groups
        orig_lp = dedup_mod.label_propagation_groups_ds
        monkeypatch.setattr(
            dedup_mod, "dedup_groups",
            lambda df: calls.append("driver") or orig_uf(df),
        )
        monkeypatch.setattr(
            dedup_mod, "label_propagation_groups_ds",
            lambda ds, **kw: calls.append("distributed") or orig_lp(ds, **kw),
        )

        def groups(**kw):
            ds = dedup_mod.dedup_groups_auto_ds(ray.data.from_pandas(pairs), **kw)
            out = to_frame(ds, dedup_mod.GROUP_COLS)
            return out.sort_values(["group_id", "doc_id"]).reset_index(drop=True)

        small = groups()
        assert calls == ["driver"]
        big = groups(driver_pair_limit=2)
        assert calls == ["driver", "distributed"]
        pd.testing.assert_frame_equal(small, big)
        assert small["group_id"].tolist() == [1, 1, 1, 5, 5]


class TestAnnRecall:
    def test_invariants_and_oracle_parity(self, ray_session):
        import duckdb
        import pandas as pd

        from exstruct_ray.queries import ORACLE_SQL, embedding_ann_recall

        sf_dir = "/root/testdata/sf0.001"
        out = embedding_ann_recall(sf_dir)
        # One row per query; recall bounded; a query always recalls
        # itself when its own cluster is probed, so n_hit >= 1 here.
        assert out["query_id"].tolist() == [0, 1, 2, 3, 4]
        assert ((out["n_hit"] >= 0) & (out["n_hit"] <= 10)).all()
        assert ((out["recall"] >= 0.0) & (out["recall"] <= 1.0)).all()
        assert (out["recall"] * 10 == out["n_hit"]).all()

        con = duckdb.connect()
        con.execute(
            "CREATE VIEW embeddings AS SELECT * FROM "
            f"read_parquet('{sf_dir}/embeddings.parquet')"
        )
        want = con.execute(ORACLE_SQL["embedding_ann_recall"]).df()
        pd.testing.assert_frame_equal(
            out.reset_index(drop=True), want.reset_index(drop=True),
            check_dtype=False,
        )
