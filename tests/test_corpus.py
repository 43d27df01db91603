import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from oracles import (
    indicator_centroid_sums,
    preprocess_loop,
    save_embeddings,
    write_bow_loop,
    write_label_file_loop,
)

from glocom.aggregation import kmeans
from glocom.corpus import (
    _INT_BLOCK,
    BowCorpus,
    Vocabulary,
    load_embeddings,
    load_word_embeddings,
    preprocess,
    read_bow,
    read_corpus_file,
    read_label_file,
    read_vocabulary,
    tfidf,
    write_bow,
    write_label_file,
    write_vocabulary,
)
from glocom.errors import CorpusError, EmbeddingError


def test_build_vocabulary_counts_and_order():
    bow, _ = preprocess([["a", "b", "a"], ["a", "c"]], min_freq=2, min_terms=1)
    assert bow.vocab.words == ["a"]
    # min_freq=1 keeps all distinct tokens, first-occurrence order
    bow, _ = preprocess([["b", "a", "b"], ["c", "a"]], min_freq=1, min_terms=1)
    assert bow.vocab.words == ["b", "a", "c"]
    assert bow.vocab.index == {"b": 0, "a": 1, "c": 2}


def test_build_vocabulary_empty_result_names_min_freq():
    with pytest.raises(CorpusError, match="min_freq=5"):
        preprocess([["a"], ["b"]], min_freq=5, min_terms=1)


def test_build_vocabulary_rejects_empty_corpus():
    with pytest.raises(CorpusError):
        preprocess([], min_freq=1)


def test_vocabulary_rejects_duplicates_and_empties():
    with pytest.raises(CorpusError):
        Vocabulary(["a", "a"])
    with pytest.raises(CorpusError):
        Vocabulary(["a", ""])


def test_build_bow_filter_rule():
    bow, kept = preprocess([["a", "b"], ["a"]], min_freq=1, min_terms=2)
    assert kept == [0]
    assert bow.num_docs == 1
    assert bow.vocab.words == ["a", "b"]
    assert bow.dense().tolist() == [[1.0, 1.0]]


def test_build_bow_drops_empty_docs_regardless_of_min_terms():
    # second doc is all out-of-vocabulary (z and q occur once), third is empty
    bow, kept = preprocess([["a", "a"], ["z", "q"], []], min_freq=2, min_terms=1)
    assert bow.vocab.words == ["a"]
    assert kept == [0]


def test_build_bow_all_dropped_is_an_error():
    with pytest.raises(CorpusError, match="min_terms=2"):
        preprocess([["a"], ["a", "a"]], min_freq=1, min_terms=2)


def test_build_bow_filters_labels_through_kept_indices():
    # z occurs once, so the second document has no vocabulary word
    bow, kept = preprocess(
        [["a", "b"], ["z"], ["b", "a", "a"]], min_freq=2, min_terms=2, labels=[7, 8, 9]
    )
    assert bow.vocab.words == ["a", "b"]
    assert kept == [0, 2]
    assert bow.labels.tolist() == [7, 9]


def test_doc_lengths_match_counts():
    docs = [["a", "a", "b"], ["b", "c", "c", "c"]]
    bow, _ = preprocess(docs, min_freq=1, min_terms=1)
    lengths = np.asarray(bow.counts.sum(axis=1)).ravel()
    assert lengths.tolist() == [3, 4]
    assert lengths.tolist() == [len(d) for d in docs]


def test_preprocess_degenerate_corpus_errors():
    # freq a=6 b=5 passes min_freq=5, but the document filter then drops the
    # two single-term docs, pulling both frequencies under 5 on the next
    # pass. The corpus collapses and that must surface as an error.
    docs = [["a", "b", "a"], ["a", "b", "a"], ["b", "b", "b"], ["a", "a"]]
    with pytest.raises(CorpusError):
        preprocess(docs, min_freq=5, min_terms=2)


def test_preprocess_fixpoint_iterates_vocab():
    docs = [["a", "b"], ["a", "b"], ["a", "c"], ["c"]]
    # pass 1: freq a=3 b=2 c=2 -> all kept at min_freq=2; doc 3 has one
    # distinct term -> dropped; now freq(c)=1 < 2, second pass drops c, doc 2
    # becomes single-term and is dropped too.
    bow, kept = preprocess(docs, min_freq=2, min_terms=2)
    assert bow.vocab.words == ["a", "b"]
    assert kept == [0, 1]
    # rerunning on the surviving corpus changes nothing
    survivors = [docs[i] for i in kept]
    bow2, kept2 = preprocess(survivors, min_freq=2, min_terms=2)
    assert kept2 == [0, 1]
    assert bow2.vocab.words == bow.vocab.words
    assert (bow2.counts != bow.counts).nnz == 0


def test_preprocess_first_occurrence_moves_when_a_document_drops():
    # pass 1 keeps b, a, c in that order (x is rare) and drops document 0,
    # whose only kept word is b; among the survivors b occurs last
    docs = [["x", "b"], ["a", "c", "b"], ["c", "b", "a"]]
    bow, kept = preprocess(docs, min_freq=2, min_terms=2)
    assert bow.vocab.words == ["a", "c", "b"]
    assert kept == [1, 2]
    assert bow.counts.toarray().tolist() == [[1, 1, 1], [1, 1, 1]]
    want, want_kept = preprocess_loop(docs, min_freq=2, min_terms=2)
    assert want.vocab.words == bow.vocab.words and want_kept == kept


def _random_raw_corpus(rng):
    """Zipf-like tokens over a shuffled vocabulary with non-ASCII words;
    documents of 0 to 9 tokens."""
    words = [f"w{i}" for i in range(int(rng.integers(2, 60)))]
    words += ["é", "日本", "naïve", "straße"]
    words = [words[i] for i in rng.permutation(len(words))]
    p = 1.0 / np.arange(1, len(words) + 1) ** rng.uniform(0.6, 1.6)
    p /= p.sum()
    return [
        [words[i] for i in rng.choice(len(words), size=int(rng.integers(0, 10)), p=p)]
        for _ in range(int(rng.integers(1, 40)))
    ]


def _setup_files(out, preprocess_fn, writers, docs, min_freq, min_terms, labels, seed):
    """The set-up files of one corpus as bytes, or the error message."""
    write_bow_fn, write_label_fn = writers
    try:
        bow, kept = preprocess_fn(docs, min_freq, min_terms, labels)
    except CorpusError as exc:
        return str(exc)
    out.mkdir()
    write_vocabulary(bow.vocab, str(out / "vocab.txt"))
    write_bow_fn(bow, str(out / "bow.txt"))
    write_label_fn(kept, str(out / "kept.txt"))
    if bow.labels is not None:
        write_label_fn(bow.labels, str(out / "labels.txt"))
    G = min(3, bow.num_docs)
    write_label_fn(kmeans(tfidf(bow), G, seed=seed).assignment, str(out / "assignment.txt"))
    return {f.name: f.read_bytes() for f in sorted(out.iterdir())}


def test_setup_files_match_loop_oracles_on_random_corpora(tmp_path):
    outcomes = set()
    for seed in range(300):
        rng = np.random.default_rng(seed)
        docs = _random_raw_corpus(rng)
        min_freq, min_terms = (int(x) for x in rng.integers(1, 4, size=2))
        labels = rng.integers(-12, 12, size=len(docs)).tolist() if seed % 2 else None
        args = (docs, min_freq, min_terms, labels, seed)
        got = _setup_files(tmp_path / f"{seed}a", preprocess,
                           (write_bow, write_label_file), *args)
        with indicator_centroid_sums():
            want = _setup_files(tmp_path / f"{seed}b", preprocess_loop,
                                (write_bow_loop, write_label_file_loop), *args)
        assert got == want, (seed, min_freq, min_terms)
        outcomes.add(type(got).__name__)
    assert outcomes == {"dict", "str"}  # both kept corpora and errors were seen


def test_writers_match_loop_oracles_at_digit_boundaries(tmp_path):
    bounds = [0] + [10**k + d for k in range(1, 6) for d in (-1, 0)]  # 0, 9, 10, ..., 100000
    counts = [1, 9, 10, 99, 100, 10**8 - 1, 10**8, 10**12, 10**16, 10**18, 2**63 - 1]
    n = bounds[-1] + 1
    X = sp.csr_matrix(
        (counts, (bounds, bounds[::-1])), shape=(n, n), dtype=np.int64
    )
    bow = BowCorpus(X, Vocabulary([f"w{i}" for i in range(n)]))
    write_bow(bow, str(tmp_path / "a.txt"))
    write_bow_loop(bow, str(tmp_path / "b.txt"))
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()
    values = bounds + counts + [-v for v in bounds + counts] + [-2**63]
    write_label_file(values, str(tmp_path / "c.txt"))
    write_label_file_loop(values, str(tmp_path / "d.txt"))
    assert (tmp_path / "c.txt").read_bytes() == (tmp_path / "d.txt").read_bytes()

    empty = BowCorpus(sp.csr_matrix((3, 2), dtype=np.int64), Vocabulary(["a", "b"]))
    write_bow(empty, str(tmp_path / "e.txt"))
    write_bow_loop(empty, str(tmp_path / "f.txt"))
    assert (tmp_path / "e.txt").read_bytes() == (tmp_path / "f.txt").read_bytes() == b"3 2 0\n"
    write_label_file([], str(tmp_path / "g.txt"))
    assert (tmp_path / "g.txt").read_bytes() == b""


def _wide_corpus(D, rng):
    """D documents of 8 distinct words each out of 3000, counts 1..49."""
    cols = np.arange(8) * 375 + rng.integers(0, 375, size=(D, 8))
    X = sp.csr_matrix(
        (rng.integers(1, 50, size=8 * D), cols.ravel(), np.arange(0, 8 * D + 1, 8)),
        shape=(D, 3000),
    )
    return BowCorpus(X, Vocabulary([f"w{i}" for i in range(3000)]))


def _write_peak(bow, path):
    tracemalloc.start()
    try:
        write_bow(bow, path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_write_bow_spans_blocks_with_flat_memory(tmp_path):
    rng = np.random.default_rng(5)
    small, large = _wide_corpus(12000, rng), _wide_corpus(48000, rng)
    assert 3 * small.counts.nnz > 4 * _INT_BLOCK  # more than four writer blocks
    write_bow_loop(small, str(tmp_path / "b.txt"))
    peak_small = _write_peak(small, str(tmp_path / "a.txt"))
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()
    peak_large = _write_peak(large, str(tmp_path / "c.txt"))
    # four times the entries, the same peak: one block is held at a time
    assert peak_large < 1.1 * peak_small
    assert peak_large < (tmp_path / "c.txt").stat().st_size / 2


def _dense_tfidf(corpus):
    """Reference: TF-IDF over the dense count matrix."""
    D = corpus.num_docs
    df = np.asarray((corpus.counts > 0).sum(axis=0), dtype=np.float64).ravel()
    idf = np.zeros_like(df)
    present = df > 0
    idf[present] = np.log(D / df[present])
    X = corpus.counts.toarray().astype(np.float64) * idf[None, :]
    norms = np.linalg.norm(X, axis=1)
    nz = norms > 0
    X[nz] /= norms[nz, None]
    return X


def test_tfidf_csr_matches_dense_oracle():
    rng = np.random.default_rng(11)
    for _ in range(20):
        D, V = int(rng.integers(2, 60)), int(rng.integers(3, 40))
        M = rng.integers(0, 4, size=(D, V)) * (rng.random((D, V)) < 0.2)
        M[:, 0] += 1  # word 0 is in every document: idf 0
        M[0, 1] = 1
        bow = BowCorpus(sp.csr_matrix(M), Vocabulary([f"w{i}" for i in range(V)]))
        rows = tfidf(bow).rows
        assert sp.isspmatrix_csr(rows)
        assert rows.nnz <= bow.counts.nnz
        np.testing.assert_allclose(rows.toarray(), _dense_tfidf(bow), rtol=0, atol=1e-15)


def test_tfidf_hand_oracle():
    # docs: [a a b], [a c], [b b b]; df(a)=2 df(b)=2 df(c)=1, D=3
    bow, _ = preprocess([["a", "a", "b"], ["a", "c"], ["b", "b", "b"]], min_freq=1,
                        min_terms=1)
    assert bow.vocab.words == ["a", "b", "c"]
    X = tfidf(bow).rows.toarray()
    expected = np.array(
        [
            [0.8944271909999159, 0.4472135954999579, 0.0],
            [0.3462415530579614, 0.0, 0.9381453975456102],
            [0.0, 1.0, 0.0],
        ]
    )
    np.testing.assert_allclose(X, expected, atol=1e-12)


def test_tfidf_single_document_gives_zero_row():
    bow, _ = preprocess([["a", "b", "b"]], min_freq=1, min_terms=1)
    X = tfidf(bow).rows.toarray()
    assert np.all(X == 0.0)


def test_tfidf_row_norms_zero_or_one():
    rng = np.random.default_rng(0)
    for _ in range(20):
        D, V = rng.integers(2, 12), rng.integers(3, 9)
        M = rng.integers(0, 4, size=(D, V))
        M[0, :] = [1] + [0] * (V - 1)  # keep at least one doc nonempty
        rows = [r for r in M if r.sum() > 0]
        counts = sp.csr_matrix(np.array(rows))
        bow = BowCorpus(counts, Vocabulary([f"w{i}" for i in range(V)]))
        X = tfidf(bow).rows.toarray()
        norms = np.linalg.norm(X, axis=1)
        for n in norms:
            assert abs(n) < 1e-9 or abs(n - 1.0) < 1e-9


def test_embedding_binary_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    M = rng.normal(size=(5, 7)).astype(np.float32)
    path = str(tmp_path / "m.gemb")
    save_embeddings(M, path)
    back = load_embeddings(path, expected_rows=5)
    np.testing.assert_array_equal(back.rows.astype(np.float32), M)


def test_embedding_header_example(tmp_path):
    path = str(tmp_path / "m.gemb")
    save_embeddings(np.arange(6, dtype=np.float32).reshape(3, 2), path)
    M = load_embeddings(path, expected_rows=3).rows
    assert M.shape == (3, 2)
    np.testing.assert_array_equal(M, np.arange(6).reshape(3, 2))


def test_embedding_row_count_mismatch_names_both(tmp_path):
    path = str(tmp_path / "m.gemb")
    save_embeddings(np.zeros((3, 2), dtype=np.float32), path)
    with pytest.raises(EmbeddingError, match="3 rows, expected 4"):
        load_embeddings(path, expected_rows=4)


def test_embedding_rejects_nonfinite(tmp_path):
    path = str(tmp_path / "m.gemb")
    M = np.zeros((2, 2), dtype=np.float32)
    M[0, 0] = np.inf
    save_embeddings(M, path)
    with pytest.raises(EmbeddingError, match="non-finite"):
        load_embeddings(path, expected_rows=2)


def test_embedding_bad_magic(tmp_path):
    path = str(tmp_path / "m.gemb")
    with open(path, "wb") as fh:
        fh.write(b"NOPE" + b"\x00" * 16)
    with pytest.raises(EmbeddingError):
        load_embeddings(path, expected_rows=1)


def test_embedding_csv_alternative(tmp_path):
    path = str(tmp_path / "m.csv")
    with open(path, "w") as fh:
        fh.write("1.5,2.0\n-3.25,0.5\n")
    M = load_embeddings(path, expected_rows=2).rows
    np.testing.assert_array_equal(M, [[1.5, 2.0], [-3.25, 0.5]])


def test_embedding_csv_ragged_rows(tmp_path):
    path = str(tmp_path / "m.csv")
    with open(path, "w") as fh:
        fh.write("1.0,2.0\n3.0\n")
    with pytest.raises(EmbeddingError, match="expected 2"):
        load_embeddings(path, expected_rows=2)


def test_word_embeddings_full_coverage(tmp_path):
    vocab = Vocabulary(["cat", "dog"])
    path = str(tmp_path / "w.txt")
    with open(path, "w") as fh:
        fh.write("cat 1.0 2.0\ndog 3.0 4.0\n")
    init = load_word_embeddings(path, vocab, seed=11)
    assert init.coverage == 1.0
    np.testing.assert_array_equal(init.vectors, [[1.0, 2.0], [3.0, 4.0]])


def test_word_embeddings_zero_coverage_uses_seeded_fallback(tmp_path):
    vocab = Vocabulary(["cat", "dog"])
    path = str(tmp_path / "w.txt")
    with open(path, "w") as fh:
        fh.write("fish 1.0 2.0 3.0\n")
    a = load_word_embeddings(path, vocab, seed=5)
    b = load_word_embeddings(path, vocab, seed=5)
    assert a.coverage == 0.0
    assert a.vectors.shape == (2, 3)
    assert np.all(np.abs(a.vectors) <= 0.05)
    np.testing.assert_array_equal(a.vectors, b.vectors)
    c = load_word_embeddings(path, vocab, seed=6)
    assert not np.array_equal(a.vectors, c.vectors)


def test_word_embeddings_mixed_dimension_is_error(tmp_path):
    vocab = Vocabulary(["cat"])
    path = str(tmp_path / "w.txt")
    with open(path, "w") as fh:
        fh.write("cat " + " ".join(["0.1"] * 50) + "\n")
        fh.write("dog " + " ".join(["0.1"] * 100) + "\n")
    with pytest.raises(EmbeddingError, match="dimension"):
        load_word_embeddings(path, vocab, seed=0)


def test_word_embeddings_non_finite_values(tmp_path):
    vocab = Vocabulary(["cat", "dog"])
    path = tmp_path / "w.txt"
    # a word outside the vocabulary is checked for width only
    path.write_text("fish nan abc\ncat 1.0 2.0\ndog inf 0.5\n")
    with pytest.raises(EmbeddingError, match=re.escape(f"{path}:3: non-finite value for 'dog'")):
        load_word_embeddings(str(path), vocab, seed=0)
    path.write_text("fish nan abc\ncat 1.0 2.0\n")
    assert load_word_embeddings(str(path), vocab, seed=0).coverage == 0.5


def test_corpus_and_label_files(tmp_path):
    cpath = str(tmp_path / "c.txt")
    with open(cpath, "w") as fh:
        fh.write("a b a\nc d\n")
    docs = read_corpus_file(cpath)
    assert docs == [["a", "b", "a"], ["c", "d"]]
    lpath = str(tmp_path / "l.txt")
    with open(lpath, "w") as fh:
        fh.write("3\n1\n")
    labels = read_label_file(lpath)
    assert labels.tolist() == [3, 1]
    with open(lpath, "w") as fh:
        fh.write("x\n")
    with pytest.raises(CorpusError):
        read_label_file(lpath)


def test_bow_file_round_trip(tmp_path):
    bow, _ = preprocess([["a", "a", "c"], ["b", "c"]], min_freq=1, min_terms=1)
    path = str(tmp_path / "bow.txt")
    write_bow(bow, path)
    with open(path) as fh:
        assert fh.readline().strip() == "2 3 4"
    back = read_bow(path, bow.vocab)
    assert (back.counts != bow.counts).nnz == 0


def test_write_bow_bytes_match_loop_writer(tmp_path):
    rng = np.random.default_rng(3)
    M = rng.integers(0, 40, size=(30, 25)) * (rng.random((30, 25)) < 0.3)
    M[:, 0] += 1
    bow = BowCorpus(sp.csr_matrix(M), Vocabulary([f"w{i}" for i in range(25)]))
    write_bow(bow, str(tmp_path / "a.txt"))
    write_bow_loop(bow, str(tmp_path / "b.txt"))
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()
    back = read_bow(str(tmp_path / "a.txt"), bow.vocab)
    np.testing.assert_array_equal(back.counts.toarray(), M)


@pytest.mark.parametrize(
    "body, message",
    [
        ("2 3 3\n0 0 2\n1 1 1\n", "truncated at entry 2 of 3"),
        ("2 3 3\n", "truncated at entry 0 of 3"),
        ("2 3 3\n0 0 2\n1 1\n1 2 1\n", "malformed entry"),
        ("2 3 2\n0 0 2\n1 1 x\n", "malformed entry"),
        ("2 3 2\n0 0\n1 1\n", "expected 3"),
        ("2 3 2\n0 0 2\n2 1 1\n", "outside the 2 x 3 matrix"),
        ("2 3 2\n0 0 2\n1 1 1\n1 2 1\n", r"bow.txt:4: entry beyond the header's NNZ=2"),
        ("2 3 2\n0 0 2\n1 1 0\n", r"bow.txt:3: count 0 is not positive"),
    ],
)
def test_read_bow_rejects_malformed_files(tmp_path, body, message):
    path = tmp_path / "bow.txt"
    path.write_text(body)
    with pytest.raises(CorpusError, match=message):
        read_bow(str(path), Vocabulary(["a", "b", "c"]))


def test_read_bow_allows_blank_trailing_lines(tmp_path):
    path = tmp_path / "bow.txt"
    path.write_text("2 3 2\n0 0 2\n1 1 1\n\n  \n")
    back = read_bow(str(path), Vocabulary(["a", "b", "c"]))
    np.testing.assert_array_equal(back.counts.toarray(), [[2, 0, 0], [0, 1, 0]])


def test_vocab_and_kept_round_trip(tmp_path):
    vocab = Vocabulary(["alpha", "beta"])
    vpath = str(tmp_path / "v.txt")
    write_vocabulary(vocab, vpath)
    assert read_vocabulary(vpath).words == ["alpha", "beta"]
    kpath = str(tmp_path / "k.txt")
    write_label_file([0, 2, 5], kpath)
    with open(kpath, encoding="utf-8") as fh:
        assert fh.read() == "0\n2\n5\n"
    assert read_label_file(kpath).tolist() == [0, 2, 5]
