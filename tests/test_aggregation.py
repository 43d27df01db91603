import re
from itertools import combinations

import numpy as np
import pytest
import scipy.sparse as sp
from oracles import (
    augmented_docs,
    dense_target_reconstruction,
    indicator_centroid_sums,
    profile_word_embeddings,
)

from glocom.aggregation import (
    _cluster_sums,
    _indicator,
    build_global_corpus,
    build_global_docs,
    kmeans,
    read_assignment,
)
from glocom.corpus import BowCorpus, EmbeddingMatrix, Vocabulary, tfidf, write_label_file
from glocom.errors import ClusteringError
from glocom.model import reconstruction


def _emb(rows):
    return EmbeddingMatrix(np.asarray(rows, dtype=np.float64))


def _bow(counts):
    counts = np.asarray(counts)
    vocab = Vocabulary([f"w{i}" for i in range(counts.shape[1])])
    return BowCorpus(sp.csr_matrix(counts), vocab)


def _best_two_partition_sse(X):
    """Exhaustive optimum over all 2-partitions (oracle for small N)."""
    n = X.shape[0]
    best = np.inf
    idx = set(range(n))
    for size in range(1, n // 2 + 1):
        for left in combinations(range(n), size):
            right = tuple(sorted(idx - set(left)))
            sse = 0.0
            for part in (left, right):
                P = X[list(part)]
                sse += float(np.sum((P - P.mean(axis=0)) ** 2))
            if sse < best:
                best = sse
    return best


def test_kmeans_each_doc_own_cluster():
    X = _emb([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0]])
    res = kmeans(X, G=3, seed=0)
    assert res.inertia == 0.0
    assert sorted(res.assignment.tolist()) == [0, 1, 2]


def test_kmeans_single_cluster_is_mean():
    X = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 4.0]])
    res = kmeans(_emb(X), G=1, seed=3)
    np.testing.assert_allclose(res.centroids[0], X.mean(axis=0), atol=1e-12)
    assert res.assignment.tolist() == [0, 0, 0]


def test_kmeans_matches_exhaustive_two_partition():
    rng = np.random.default_rng(7)
    for trial in range(10):
        n = int(rng.integers(4, 13))
        X = np.concatenate(
            [
                rng.normal(loc=(0, 0), scale=0.3, size=(n // 2, 2)),
                rng.normal(loc=(6, 6), scale=0.3, size=(n - n // 2, 2)),
            ]
        )
        oracle = _best_two_partition_sse(X)
        res = kmeans(_emb(X), G=2, seed=trial)
        assert res.inertia <= oracle + 1e-8


def test_kmeans_inertia_history_non_increasing():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(80, 4))
    res = kmeans(_emb(X), G=6, seed=2)
    h = np.asarray(res.inertia_history)
    assert np.all(np.diff(h) <= 1e-9)
    assert h[-1] == res.inertia


def test_kmeans_final_assignment_is_fixed_point():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(50, 3))
    res = kmeans(_emb(X), G=4, seed=9)
    d2 = (
        np.sum(X * X, axis=1)[:, None]
        - 2 * X @ res.centroids.T
        + np.sum(res.centroids**2, axis=1)[None, :]
    )
    np.testing.assert_array_equal(np.argmin(d2, axis=1), res.assignment)


def test_kmeans_deterministic():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(40, 5))
    a = kmeans(_emb(X), G=5, seed=13)
    b = kmeans(_emb(X), G=5, seed=13)
    np.testing.assert_array_equal(a.assignment, b.assignment)
    np.testing.assert_array_equal(a.centroids, b.centroids)


def test_kmeans_permutation_up_to_relabeling():
    rng = np.random.default_rng(4)
    X = np.concatenate(
        [
            rng.normal(loc=(0, 0), scale=0.2, size=(10, 2)),
            rng.normal(loc=(5, 0), scale=0.2, size=(10, 2)),
            rng.normal(loc=(0, 5), scale=0.2, size=(10, 2)),
        ]
    )
    init = X[[0, 10, 20]]
    perm = rng.permutation(30)
    a = kmeans(_emb(X), G=3, seed=0, init_centroids=init)
    b = kmeans(_emb(X[perm]), G=3, seed=0, init_centroids=init)
    # b's assignment pulled back to original order must match up to a
    # relabeling of cluster ids
    pulled = np.empty(30, dtype=int)
    pulled[perm] = b.assignment
    mapping = {}
    for orig, new in zip(a.assignment, pulled):
        mapping.setdefault(orig, new)
        assert mapping[orig] == new
    assert len(set(mapping.values())) == 3


def test_kmeans_empty_cluster_reseed_keeps_G():
    # init places two centroids on top of each other far from all points, so
    # one cluster starves and must be re-seeded
    X = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 0.0], [10.1, 0.0]])
    init = np.array([[100.0, 100.0], [100.0, 100.0]])
    res = kmeans(_emb(X), G=2, seed=0, init_centroids=init)
    assert res.G == 2
    assert len(set(res.assignment.tolist())) == 2
    assert res.inertia < 0.1


def test_kmeans_normalize_flag():
    # scaled copies of two directions collapse onto two points on the sphere
    X = np.array([[1.0, 0.0], [7.0, 0.0], [0.0, 2.0], [0.0, 9.0]])
    res = kmeans(_emb(X), G=2, seed=0, normalize=True)
    assert res.assignment[0] == res.assignment[1]
    assert res.assignment[2] == res.assignment[3]
    assert res.inertia < 1e-12


def _dense_kmeans(X, G, seed=0, max_iters=100, tol=1e-6, normalize=False, init=None):
    """Reference: Lloyd's loop over a dense matrix, with np.add.at centroid
    sums and the squared norms recomputed at every distance call."""
    from glocom.rng import substream

    def sq_dists(X, C):
        d2 = (np.sum(X * X, axis=1)[:, None] - 2.0 * (X @ C.T)
              + np.sum(C * C, axis=1)[None, :])
        return np.maximum(d2, 0.0)

    X = np.asarray(X, dtype=np.float64)
    N = X.shape[0]
    if normalize:
        norms = np.linalg.norm(X, axis=1)
        X = X.copy()
        X[norms > 0] /= norms[norms > 0, None]
    rng = substream(seed, "clustering")
    C = np.empty((G, X.shape[1]))
    C[0] = X[int(rng.integers(N))]
    closest = sq_dists(X, C[:1]).ravel()
    for j in range(1, G if init is None else 1):
        total = closest.sum()
        idx = int(rng.integers(N)) if total <= 0 else int(rng.choice(N, p=closest / total))
        C[j] = X[idx]
        np.minimum(closest, sq_dists(X, C[j : j + 1]).ravel(), out=closest)
    if init is not None:
        C = np.array(init, dtype=np.float64)
    for _ in range(max_iters):
        d2 = sq_dists(X, C)
        assign = np.argmin(d2, axis=1)
        newC = np.zeros_like(C)
        counts = np.bincount(assign, minlength=G).astype(np.float64)
        np.add.at(newC, assign, X)
        nonempty = counts > 0
        newC[nonempty] /= counts[nonempty, None]
        for g in np.flatnonzero(~nonempty):
            cur = d2[np.arange(N), assign]
            far = int(np.argmax(cur))
            newC[g] = X[far]
            assign[far] = g
            d2[far, :] = np.inf
            d2[far, g] = 0.0
        shift = float(np.sqrt(np.sum((newC - C) ** 2, axis=1)).max())
        C = newC
        if shift < tol:
            break
    d2 = sq_dists(X, C)
    assign = np.argmin(d2, axis=1)
    return assign, C, float(d2[np.arange(N), assign].sum())


def _tie_free_rows(rng, N, E):
    """Continuous rows with about 30% zeros: no two distances tie."""
    X = rng.normal(size=(N, E)) + rng.integers(0, 3, size=(N, 1))
    X[rng.random((N, E)) < 0.3] = 0.0
    return X


def test_kmeans_csr_matches_dense_oracle():
    rng = np.random.default_rng(21)
    for trial in range(8):
        X = _tie_free_rows(rng, int(rng.integers(30, 120)), int(rng.integers(4, 30)))
        G = int(rng.integers(2, 8))
        for normalize in (False, True):
            res = kmeans(EmbeddingMatrix(sp.csr_matrix(X)), G, seed=trial,
                         normalize=normalize)
            assign, C, inertia = _dense_kmeans(X, G, seed=trial, normalize=normalize)
            np.testing.assert_array_equal(res.assignment, assign)
            np.testing.assert_allclose(res.centroids, C, rtol=1e-10, atol=1e-12)
            assert res.inertia == pytest.approx(inertia, rel=1e-10)


def test_kmeans_csr_empty_cluster_reseed_matches_dense_oracle():
    # three centroids start on one far point: two clusters starve at once
    # and take the rows farthest from their centroids
    rng = np.random.default_rng(23)
    X = _tie_free_rows(rng, 60, 8)
    init = np.vstack([X[:2], np.full((3, 8), 50.0)])
    res = kmeans(EmbeddingMatrix(sp.csr_matrix(X)), 5, init_centroids=init)
    assign, C, inertia = _dense_kmeans(X, 5, init=init)
    np.testing.assert_array_equal(res.assignment, assign)
    np.testing.assert_allclose(res.centroids, C, rtol=1e-10, atol=1e-12)
    assert res.inertia == pytest.approx(inertia, rel=1e-10)


def test_cluster_sums_equal_indicator_product():
    rng = np.random.default_rng(31)
    for trial in range(20):
        N, E, G = int(rng.integers(1, 80)), int(rng.integers(1, 30)), int(rng.integers(1, 9))
        X = sp.random(N, E, density=float(rng.uniform(0, 0.5)), format="csr",
                      random_state=rng, data_rvs=rng.standard_normal)
        # ids drawn below G - 2 leave the top clusters empty
        assign = rng.integers(0, max(1, G - 2), size=N)
        entry_row = np.repeat(np.arange(N), np.diff(X.indptr))
        sums = _cluster_sums(X, entry_row, assign, G)
        assert sums.dtype == np.float64
        np.testing.assert_array_equal(sums, (_indicator(assign, G, np.float64) @ X).toarray())


def _planted_tfidf(D, V, G, seed):
    """TF-IDF rows of a corpus shaped like a benchmark workload: G planted
    groups, each drawing 90% of its 4 to 12 tokens from its own word block."""
    rng = np.random.default_rng(seed)
    lengths = rng.integers(4, 13, size=D)
    group = np.repeat(rng.integers(0, G, size=D), lengths)
    own = rng.random(group.size) < 0.9
    words = np.where(own, group * (V // G) + rng.integers(0, V // G, size=group.size),
                     rng.integers(0, V, size=group.size))
    counts = sp.csr_matrix((np.ones(group.size, dtype=np.int64),
                            (np.repeat(np.arange(D), lengths), words)), shape=(D, V))
    return tfidf(BowCorpus(counts, Vocabulary([f"w{i}" for i in range(V)])))


@pytest.mark.parametrize("D, V, G", [(1000, 100, 5), (1000, 2000, 20), (3000, 3000, 20)])
def test_kmeans_matches_indicator_sums_on_benchmark_shapes(D, V, G):
    emb = _planted_tfidf(D, V, G, seed=D + V)
    # k-means++ seeding, then three centroids on one far point, so two
    # clusters starve on the first iteration and are re-seeded
    init = np.vstack([emb.rows[: G - 3].toarray(), np.full((3, V), 5.0)])
    for kw in ({}, {"init_centroids": init}):
        got = kmeans(emb, G, seed=0, **kw)
        with indicator_centroid_sums():
            want = kmeans(emb, G, seed=0, **kw)
        np.testing.assert_array_equal(got.assignment, want.assignment)
        np.testing.assert_array_equal(got.centroids, want.centroids)
        assert got.inertia_history == want.inertia_history


def test_kmeans_dense_and_csr_rows_cluster_identically():
    rng = np.random.default_rng(22)
    for trial in range(6):
        X = _tie_free_rows(rng, 80, 12)
        for normalize in (False, True):
            dense = kmeans(_emb(X), 5, seed=trial, normalize=normalize)
            csr = kmeans(EmbeddingMatrix(sp.csr_matrix(X)), 5, seed=trial,
                         normalize=normalize)
            np.testing.assert_array_equal(dense.assignment, csr.assignment)
            np.testing.assert_allclose(dense.centroids, csr.centroids, rtol=1e-12,
                                       atol=1e-14)
            assert len(dense.inertia_history) == len(csr.inertia_history)


def test_kmeans_validates_G():
    X = _emb(np.zeros((3, 2)))
    with pytest.raises(ClusteringError):
        kmeans(X, G=4, seed=0)
    with pytest.raises(ClusteringError):
        kmeans(X, G=0, seed=0)


def test_global_docs_sum_example():
    corpus = _bow([[1, 0], [2, 1]])
    G = build_global_docs(corpus, np.array([0, 0]), 1)
    assert sp.isspmatrix_csr(G) and G.dtype == np.float64
    assert G.toarray().tolist() == [[3, 1]]


def test_global_docs_singleton_identity():
    corpus = _bow([[1, 2], [0, 3]])
    G = build_global_corpus(corpus, np.array([0, 1])).global_docs
    assert G.toarray().tolist() == [[1, 2], [0, 3]]


def test_global_docs_mass_conservation_random():
    rng = np.random.default_rng(0)
    for _ in range(20):
        D, V, Gn = int(rng.integers(2, 30)), int(rng.integers(2, 15)), int(rng.integers(1, 6))
        counts = rng.integers(0, 5, size=(D, V))
        counts[:, 0] += 1  # no all-zero rows
        corpus = _bow(counts)
        ids = rng.integers(0, Gn, size=D)
        import warnings as _w

        with _w.catch_warnings():
            _w.simplefilter("ignore")
            G = build_global_corpus(corpus, ids, Gn).global_docs
        assert G.shape == (Gn, V)
        np.testing.assert_array_equal(G.toarray().sum(axis=0), counts.sum(axis=0))


def test_global_docs_empty_cluster_warns():
    corpus = _bow([[1, 1]])
    with pytest.warns(UserWarning, match="no documents"):
        G = build_global_corpus(corpus, np.array([0]), G=2).global_docs
    assert G.toarray()[1].tolist() == [0, 0]


def test_global_docs_length_mismatch():
    corpus = _bow([[1, 1], [1, 1]])
    for ids in (np.array([0]), np.zeros((2, 1), dtype=np.int64)):
        with pytest.raises(ClusteringError, match="corpus of 2 documents"):
            build_global_corpus(corpus, ids)


def test_global_corpus_rejects_ids_outside_G():
    corpus = _bow([[1, 1], [1, 1]])
    for ids, G in ((np.array([0, -1]), None), (np.array([0, 2]), 2)):
        with pytest.raises(ClusteringError, match="outside"):
            build_global_corpus(corpus, ids, G)


def test_augmented_docs_formula():
    corpus = _bow([[1, 0]])
    g = np.array([[3, 1]])
    out = augmented_docs(corpus, g, np.array([0]), eta=0.5)
    np.testing.assert_allclose(out, [[2.5, 0.5]])


def test_augmented_docs_eta_zero_identity():
    corpus = _bow([[2, 1], [0, 4]])
    gc = build_global_corpus(corpus, np.array([0, 0]))
    out = augmented_docs(corpus, gc.global_docs, gc.assignment, eta=0.0)
    np.testing.assert_array_equal(out, corpus.dense())


def test_augmented_docs_singleton_eta_one_doubles():
    corpus = _bow([[2, 1], [0, 4]])
    gc = build_global_corpus(corpus, np.array([0, 1]))
    out = augmented_docs(corpus, gc.global_docs, gc.assignment, eta=1.0)
    np.testing.assert_array_equal(out, 2.0 * corpus.dense())


def test_batch_targets_equal_whole_corpus_formula():
    # the decoder's per-batch split of the targets (CSR rows plus eta times
    # the batch's distinct CSR global documents) against x + eta *
    # global_docs[assignment] built densely for the whole corpus at once
    rng = np.random.default_rng(8)
    counts = rng.integers(0, 6, size=(40, 17)) * (rng.random((40, 17)) < 0.4)
    counts[:, 3] += 1
    corpus = _bow(counts)
    ids = rng.integers(0, 5, size=40)
    ids[:5] = np.arange(5)
    theta = rng.dirichlet(np.ones(4), size=40)
    beta = rng.dirichlet(np.ones(4), size=17)
    x = corpus.counts.astype(np.float64)
    gc = build_global_corpus(corpus, ids)
    for eta in (0.0, 0.1, 0.37):
        whole = augmented_docs(corpus, gc.global_docs, ids, eta)
        for idx in np.array_split(rng.permutation(40), 3):
            uniq, inv = np.unique(ids[idx], return_inverse=True)
            got = reconstruction(x[idx], eta * gc.global_docs[uniq], inv, theta[idx], beta)
            zero = np.zeros((uniq.size, 17))
            want = dense_target_reconstruction(whole[idx], zero, inv, theta[idx], beta)
            for g, w in zip(got, want):
                np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-14)


def test_noc_regime_augmentation():
    # G = D: every global doc is its own local doc, so augmented = (1+eta) x
    corpus = _bow([[1, 2], [3, 0], [0, 5]])
    gc = build_global_corpus(corpus, np.array([0, 1, 2]))
    np.testing.assert_array_equal(gc.global_docs.toarray(), corpus.dense())
    out = augmented_docs(corpus, gc.global_docs, gc.assignment, eta=0.3)
    np.testing.assert_allclose(out, 1.3 * corpus.dense())


def test_assignment_file_round_trip(tmp_path):
    path = str(tmp_path / "assign.txt")
    write_label_file(np.array([1, 0, 1]), path)
    back = read_assignment(path, G=2)
    np.testing.assert_array_equal(back, [1, 0, 1])
    with pytest.raises(ClusteringError, match=re.escape(f"{path}:1: cluster id 1 out of range for G=1")):
        read_assignment(path, G=1)
    with open(path, "w") as fh:
        fh.write("1\n\n-2\n")
    with pytest.raises(ClusteringError, match=re.escape(f"{path}:3: cluster id -2 out of range")):
        read_assignment(path)
    with open(path, "w") as fh:
        fh.write("1\nx\n")
    with pytest.raises(ClusteringError, match="not an integer"):
        read_assignment(path)


def test_profile_word_embeddings_separates_cluster_vocabulary():
    # words 0-1 live in cluster 0 docs, words 2-3 in cluster 1 docs,
    # word 4 is spread evenly
    counts = [
        [3, 2, 0, 0, 1],
        [2, 4, 0, 0, 1],
        [0, 0, 3, 3, 1],
        [0, 0, 4, 2, 1],
    ]
    corpus = _bow(counts)
    emb = profile_word_embeddings(corpus, np.array([0, 0, 1, 1]))
    assert emb.rows.shape == (5, 2)
    d = lambda a, b: float(np.linalg.norm(emb.rows[a] - emb.rows[b]))
    assert d(0, 1) < d(0, 2) and d(0, 1) < d(0, 3)
    assert d(2, 3) < d(2, 0) and d(2, 3) < d(2, 1)
    # deterministic: same inputs, same matrix
    again = profile_word_embeddings(corpus, np.array([0, 0, 1, 1]))
    np.testing.assert_array_equal(emb.rows, again.rows)


def test_profile_word_embeddings_handles_absent_word():
    # word 2 never occurs; its profile falls back to uniform before scaling
    counts = [[2, 1, 0], [1, 2, 0]]
    corpus = _bow(counts)
    emb = profile_word_embeddings(corpus, np.array([0, 1]), G=2)
    assert np.all(np.isfinite(emb.rows))
    assert emb.rows.shape == (3, 2)
