import itertools

import numpy as np
import pytest
from oracles import match_topics

from glocom.errors import GlocomError
from glocom.synthetic import (
    SyntheticSpec,
    generate,
    planted_beta,
)


def small_spec(**kw):
    base = dict(V=30, K=3, G=3, D=60, len_min=4, len_max=10, seed=1)
    base.update(kw)
    return SyntheticSpec(**base)


# ------------------------------------------------------------- validation


def test_spec_validation():
    with pytest.raises(GlocomError):
        small_spec(len_min=1)
    with pytest.raises(GlocomError):
        small_spec(len_max=3, len_min=4)
    with pytest.raises(GlocomError):
        small_spec(G=61)  # more clusters than docs
    with pytest.raises(GlocomError):
        small_spec(K=31)  # more topics than words
    with pytest.raises(GlocomError):
        small_spec(block_mass=1.0)
    with pytest.raises(GlocomError):
        small_spec(epsilon_true=-0.1)
    with pytest.raises(GlocomError, match="seed must be non-negative, got -1"):
        small_spec(seed=-1)
    for field in ("epsilon_true", "block_mass", "dominance_margin"):
        with pytest.raises(GlocomError, match=f"{field} must be finite, got nan"):
            small_spec(**{field: float("nan")})


# ------------------------------------------------------------ planted beta


def test_planted_beta_columns_are_distributions():
    for V, K in [(30, 3), (10, 10), (7, 3), (100, 5)]:
        beta = planted_beta(V, K, 0.9)
        np.testing.assert_allclose(beta.sum(axis=0), 1.0, atol=1e-12)
        assert np.all(beta >= 0)


def test_planted_beta_block_structure():
    beta = planted_beta(30, 3, 0.9)
    # topic k owns words [10k, 10k+10); the block holds 0.9 of its mass
    for k in range(3):
        block = slice(10 * k, 10 * (k + 1))
        assert beta[block, k].sum() == pytest.approx(0.9, abs=1e-12)
        assert np.all(beta[block, k] > beta[block, (k + 1) % 3])
    # blocks are disjoint argmax regions
    owners = np.argmax(beta, axis=1)
    assert owners.tolist() == [0] * 10 + [1] * 10 + [2] * 10


def test_planted_beta_uneven_blocks():
    beta = planted_beta(7, 3, 0.8)  # block size ceil(7/3)=3 -> sizes 3,3,1
    np.testing.assert_allclose(beta.sum(axis=0), 1.0, atol=1e-12)
    assert beta[6, 2] == pytest.approx(0.8)


# --------------------------------------------------------------- generate


def test_generate_is_deterministic():
    c1, t1 = generate(small_spec())
    c2, t2 = generate(small_spec())
    assert np.array_equal(c1.dense(), c2.dense())
    assert np.array_equal(c1.labels, c2.labels)
    assert np.array_equal(t1.beta, t2.beta)
    assert np.array_equal(t1.theta_g, t2.theta_g)
    assert np.array_equal(t1.theta_gd, t2.theta_gd)
    c3, _ = generate(small_spec(seed=2))
    assert not np.array_equal(c1.dense(), c3.dense())


def test_generate_corpus_invariants():
    spec = small_spec(D=120)
    corpus, truth = generate(spec)
    X = corpus.dense()
    assert corpus.num_docs == spec.D and corpus.num_words == spec.V
    assert np.all(X >= 0) and np.array_equal(X, np.round(X))
    lengths = X.sum(axis=1)
    assert lengths.min() >= spec.len_min and lengths.max() <= spec.len_max
    # every document has at least two distinct words
    assert np.count_nonzero(X > 0, axis=1).min() >= 2
    # every cluster is populated and labels are in range
    assert corpus.labels is not None
    assert np.array_equal(np.unique(corpus.labels), np.arange(spec.G))
    assert np.array_equal(truth.labels, corpus.labels)
    # latent rows are simplex points
    np.testing.assert_allclose(truth.theta_g.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(truth.theta_gd.sum(axis=1), 1.0, atol=1e-12)
    assert truth.theta_gd.shape == (spec.D, spec.K)
    # vocabulary words are zero-padded and sorted
    assert corpus.vocab.words == sorted(corpus.vocab.words)
    assert corpus.vocab.words[0] == "w00" and corpus.vocab.words[-1] == "w29"


def test_generate_cluster_topics_dominant_and_distinct():
    spec = small_spec(G=3, K=3)
    _, truth = generate(spec)
    top2 = np.sort(truth.theta_g, axis=1)[:, -2:]
    assert np.all(top2[:, 1] - top2[:, 0] >= spec.dominance_margin)
    assert np.unique(np.argmax(truth.theta_g, axis=1)).size == spec.G


def test_epsilon_zero_collapses_local_variation():
    corpus, truth = generate(small_spec(epsilon_true=0.0, D=40))
    from glocom.numerics import softmax_forward

    expected = softmax_forward(truth.theta_g)
    for g in range(3):
        members = np.flatnonzero(corpus.labels == g)
        rows = truth.theta_gd[members]
        assert np.array_equal(rows, np.tile(rows[0], (len(members), 1)))
        np.testing.assert_array_equal(rows[0], expected[g])


def test_single_topic_single_cluster():
    corpus, truth = generate(small_spec(K=1, G=1, D=10))
    assert truth.theta_g.shape == (1, 1) and truth.theta_g[0, 0] == 1.0
    np.testing.assert_allclose(truth.theta_gd, 1.0)
    assert corpus.num_docs == 10


def test_monte_carlo_matches_mixture():
    """Aggregate word frequencies track sum_d len_d * (beta @ theta_gd[d])."""
    spec = SyntheticSpec(V=30, K=3, G=2, D=12500, len_min=4, len_max=12, seed=3)
    corpus, truth = generate(spec)
    X = corpus.dense()
    lengths = X.sum(axis=1)
    N = lengths.sum()
    expected = (lengths[:, None] * (truth.theta_gd @ truth.beta.T)).sum(axis=0) / N
    empirical = X.sum(axis=0) / N
    sigma = np.sqrt(expected * (1 - expected) / N)
    z = np.abs(empirical - expected) / sigma
    assert z.max() < 4.0, f"max z-score {z.max():.2f}"
    # aggregate L1 drift: E[L1] = sqrt(2/pi) * sum(sigma), allow 3x
    assert np.abs(empirical - expected).sum() < 3.0 * sigma.sum()


# ------------------------------------------------------------ match_topics


def test_match_topics_identity():
    beta = planted_beta(20, 4, 0.9)
    perm, scores = match_topics(beta, beta)
    assert perm.tolist() == [0, 1, 2, 3]
    np.testing.assert_allclose(scores, 1.0, atol=1e-12)


def test_match_topics_recovers_permutation():
    rng = np.random.default_rng(9)
    beta = planted_beta(20, 4, 0.9)
    order = np.array([2, 0, 3, 1])
    noisy = beta[:, order] + 0.001 * rng.random((20, 4))
    perm, scores = match_topics(noisy, beta)
    # learned column perm[k] should be where planted topic k went
    assert [int(order[p]) for p in perm] == [0, 1, 2, 3]
    assert scores.min() > 0.99


def test_match_topics_equals_exhaustive_assignment():
    rng = np.random.default_rng(17)
    for _ in range(5):
        L = rng.random((12, 4))
        P = rng.random((12, 4))
        perm, scores = match_topics(L, P)

        def unit(M):
            return M / np.linalg.norm(M, axis=0)

        S = unit(P).T @ unit(L)
        best = max(
            itertools.permutations(range(4)),
            key=lambda p: sum(S[k, p[k]] for k in range(4)),
        )
        assert scores.sum() == pytest.approx(
            sum(S[k, best[k]] for k in range(4)), abs=1e-12
        )


def test_match_topics_shape_mismatch():
    with pytest.raises(GlocomError, match="shape"):
        match_topics(np.zeros((5, 3)), np.zeros((5, 4)))
