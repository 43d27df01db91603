import json
import math
from collections import Counter, defaultdict

import numpy as np
import pytest
import scipy.sparse as sp
from oracles import npmi_coherence_loop

from glocom.corpus import BowCorpus, Vocabulary
from glocom.errors import GlocomError
from glocom.eval import (
    TopicSet,
    assign_documents,
    nmi,
    npmi_coherence,
    purity,
    read_topics,
    topic_diversity,
    write_metrics,
)


def corpus_from_docs(docs):
    """Independent corpus builder: vocabulary in sorted order, dense counts."""
    words = sorted({w for d in docs for w in d})
    vocab = Vocabulary(words)
    M = np.zeros((len(docs), len(words)), dtype=np.int64)
    for i, d in enumerate(docs):
        for t in d:
            M[i, vocab.index[t]] += 1
    return BowCorpus(sp.csr_matrix(M), vocab)


# ---------------------------------------------------------------- TopicSet


def test_topicset_rejects_ragged_lists():
    with pytest.raises(GlocomError, match="words"):
        TopicSet([["a", "b"], ["c"]])


def test_topicset_rejects_duplicate_word_within_topic():
    with pytest.raises(GlocomError, match="repeats"):
        TopicSet([["a", "a"]])


def test_topicset_rejects_empty():
    with pytest.raises(GlocomError):
        TopicSet([])
    with pytest.raises(GlocomError):
        TopicSet([[], []])


def test_read_topics_round_trip(tmp_path):
    path = str(tmp_path / "topics.txt")
    with open(path, "w") as fh:
        fh.write("0 apple banana cherry\n1 dog emu fox\n")
    ts = read_topics(path)
    assert ts.topics == [["apple", "banana", "cherry"], ["dog", "emu", "fox"]]
    assert ts.num_topics == 2 and ts.top_n == 3


def test_read_topics_bad_ids(tmp_path):
    p1 = str(tmp_path / "dup.txt")
    with open(p1, "w") as fh:
        fh.write("0 a b\n0 c d\n")
    with pytest.raises(GlocomError, match="twice"):
        read_topics(p1)
    p2 = str(tmp_path / "gap.txt")
    with open(p2, "w") as fh:
        fh.write("0 a b\n2 c d\n")
    with pytest.raises(GlocomError, match="0..K-1"):
        read_topics(p2)
    p3 = str(tmp_path / "junk.txt")
    with open(p3, "w") as fh:
        fh.write("zero a b\n")
    with pytest.raises(GlocomError, match="bad topic line"):
        read_topics(p3)


# ---------------------------------------------------------- topic diversity


def test_td_all_distinct_is_one():
    ts = TopicSet([["a", "b", "c"], ["d", "e", "f"]])
    assert topic_diversity(ts) == 1.0


def test_td_identical_topics_is_one_over_k():
    for K in (2, 3, 5):
        ts = TopicSet([["a", "b", "c"]] * K)
        assert topic_diversity(ts) == pytest.approx(1.0 / K)


def test_td_hand_count_five_sixths():
    ts = TopicSet([["a", "b", "c"], ["a", "d", "e"]])
    assert topic_diversity(ts) == pytest.approx(5.0 / 6.0)


def test_td_invariant_to_order():
    ts1 = TopicSet([["a", "b", "c"], ["a", "d", "e"]])
    ts2 = TopicSet([["e", "a", "d"], ["c", "a", "b"]])
    assert topic_diversity(ts1) == topic_diversity(ts2)


def test_td_range():
    rng = np.random.default_rng(3)
    pool = [f"w{i}" for i in range(30)]
    for _ in range(20):
        K, N = rng.integers(1, 6), rng.integers(2, 6)
        topics = []
        for _ in range(K):
            topics.append(list(rng.choice(pool, size=N, replace=False)))
        td = topic_diversity(TopicSet(topics))
        assert 1.0 / K - 1e-12 <= td <= 1.0 + 1e-12


# ------------------------------------------------------------- purity / nmi


def test_purity_relabeling_is_perfect():
    gold = [0, 0, 1, 1, 2, 2]
    pred = [5, 5, 3, 3, 9, 9]
    assert purity(pred, gold) == 1.0
    assert nmi(pred, gold) == pytest.approx(1.0)


def test_purity_single_cluster_two_classes():
    gold = [0, 1, 0, 1]
    pred = [7, 7, 7, 7]
    assert purity(pred, gold) == 0.5


def test_purity_random_20_docs_vs_brute_force():
    rng = np.random.default_rng(11)
    pred = rng.integers(0, 4, size=20)
    gold = rng.integers(0, 3, size=20)
    per_cluster = defaultdict(Counter)
    for p, g in zip(pred, gold):
        per_cluster[int(p)][int(g)] += 1
    expected = sum(c.most_common(1)[0][1] for c in per_cluster.values()) / 20.0
    assert purity(pred, gold) == pytest.approx(expected, abs=1e-15)


def _nmi_oracle(pred, gold):
    """Direct contingency computation with dict counters and math.log."""
    n = len(pred)
    joint = Counter(zip(pred, gold))
    pc = Counter(pred)
    gc = Counter(gold)
    mi = 0.0
    for (a, b), c in joint.items():
        mi += (c / n) * math.log(c * n / (pc[a] * gc[b]))
    hp = -sum((c / n) * math.log(c / n) for c in pc.values())
    hg = -sum((c / n) * math.log(c / n) for c in gc.values())
    denom = 0.5 * (hp + hg)
    return 0.0 if denom == 0 else mi / denom


def test_nmi_12_doc_hand_case():
    pred = [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2]
    gold = [0, 0, 0, 1, 1, 1, 2, 2, 2, 0, 1, 2]
    assert nmi(pred, gold) == pytest.approx(_nmi_oracle(pred, gold), abs=1e-12)
    assert 0.0 <= nmi(pred, gold) <= 1.0


def test_nmi_independent_labels_near_zero():
    # product contingency: every (pred, gold) cell has equal count
    pred, gold = [], []
    for a in range(2):
        for b in range(3):
            pred += [a] * 4
            gold += [b] * 4
    assert nmi(pred, gold) == pytest.approx(0.0, abs=1e-12)


def test_nmi_both_constant_is_zero():
    assert nmi([1, 1, 1], [4, 4, 4]) == 0.0


def test_nmi_matches_oracle_random():
    rng = np.random.default_rng(5)
    for _ in range(10):
        pred = rng.integers(0, 4, size=40)
        gold = rng.integers(0, 3, size=40)
        assert nmi(pred, gold) == pytest.approx(
            _nmi_oracle(list(pred), list(gold)), abs=1e-12
        )


def test_nmi_symmetric_and_relabel_invariant():
    rng = np.random.default_rng(6)
    pred = rng.integers(0, 4, size=50)
    gold = rng.integers(0, 3, size=50)
    assert nmi(pred, gold) == pytest.approx(nmi(gold, pred), abs=1e-14)
    remap = {0: 17, 1: 2, 2: 40, 3: 8}
    pred2 = np.array([remap[int(p)] for p in pred])
    assert nmi(pred2, gold) == pytest.approx(nmi(pred, gold), abs=1e-14)
    assert purity(pred2, gold) == pytest.approx(purity(pred, gold), abs=1e-14)


def test_length_mismatch_errors():
    with pytest.raises(GlocomError, match="labels"):
        purity([0, 1], [0, 1, 2])
    with pytest.raises(GlocomError, match="labels"):
        nmi([0, 1], [0, 1, 2])


def test_assign_documents_argmax_lowest_tie():
    theta = np.array([[0.2, 0.5, 0.3], [0.4, 0.4, 0.2], [0.1, 0.1, 0.8]])
    assert assign_documents(theta).tolist() == [1, 0, 2]


def test_clustering_eval_dataclass():
    theta = np.array([[0.9, 0.1], [0.8, 0.2], [0.1, 0.9], [0.2, 0.8]])
    predicted = assign_documents(theta)
    assert purity(predicted, [0, 0, 1, 1]) == 1.0
    assert nmi(predicted, [0, 0, 1, 1]) == pytest.approx(1.0)
    predicted, gold = np.array([0, 0, 0, 0]), np.array([0, 1, 0, 1])
    assert purity(predicted, gold) == 0.5 and nmi(predicted, gold) == 0.0


# -------------------------------------------------------------------- NPMI


def test_npmi_always_cooccurring_pair_is_one():
    ref = corpus_from_docs([["a", "b"], ["a", "b"], ["b", "a"]])
    overall, per_topic = npmi_coherence(TopicSet([["a", "b"]]), ref)
    assert overall == 1.0
    assert per_topic.tolist() == [1.0]


def test_npmi_never_cooccurring_pair_is_floor():
    ref = corpus_from_docs([["a", "x"], ["b", "y"], ["a", "z"], ["b", "w"]])
    overall, _ = npmi_coherence(TopicSet([["a", "b"]]), ref)
    assert overall == -1.0


def test_npmi_absent_word_floors_its_pairs():
    ref = corpus_from_docs([["a", "b"], ["a", "b"]])
    overall, per_topic = npmi_coherence(TopicSet([["a", "b", "zzz"]]), ref)
    # pairs: (a,b)=1, (a,zzz)=-1, (b,zzz)=-1
    assert per_topic[0] == pytest.approx((1.0 - 1.0 - 1.0) / 3.0)
    assert overall == per_topic[0]


def test_npmi_five_doc_hand_oracle():
    ref = corpus_from_docs(
        [["a", "b"], ["a", "b"], ["a", "c"], ["c"], ["b", "c"]]
    )
    overall, per_topic = npmi_coherence(TopicSet([["a", "b", "c"]]), ref)
    # df: a=b=c=3; joint: ab=2, ac=bc=1 over D=5
    # NPMI(a,b) = [ln .4 - ln .36]/(-ln .4), NPMI(a,c) = [ln .2 - ln .36]/(-ln .2)
    assert per_topic[0] == pytest.approx(-0.20514629221431932, abs=1e-9)
    assert overall == pytest.approx(-0.20514629221431932, abs=1e-9)
    overall_ab, _ = npmi_coherence(TopicSet([["a", "b"]]), ref)
    assert overall_ab == pytest.approx(0.11498590130048031, abs=1e-9)


def test_npmi_multi_topic_mean_and_range():
    ref = corpus_from_docs(
        [["a", "b", "c"], ["a", "b"], ["c", "d"], ["d", "a"], ["b", "d"]]
    )
    overall, per_topic = npmi_coherence(
        TopicSet([["a", "b"], ["c", "d"], ["a", "d"]]), ref
    )
    assert per_topic.shape == (3,)
    assert np.all(per_topic >= -1.0) and np.all(per_topic <= 1.0)
    assert overall == pytest.approx(per_topic.mean())


def test_npmi_counts_presence_not_multiplicity():
    # repeated words inside one document must not inflate co-occurrence
    ref1 = corpus_from_docs([["a", "b"], ["c"]])
    ref2 = corpus_from_docs([["a", "a", "a", "b", "b"], ["c"]])
    o1, _ = npmi_coherence(TopicSet([["a", "b"]]), ref1)
    o2, _ = npmi_coherence(TopicSet([["a", "b"]]), ref2)
    assert o1 == o2


def test_npmi_rejects_degenerate_inputs():
    ref = corpus_from_docs([["a", "b"]])
    with pytest.raises(GlocomError, match="two words"):
        npmi_coherence(TopicSet([["a"]]), ref)
    empty = BowCorpus(sp.csr_matrix((0, 2), dtype=np.int64), Vocabulary(["a", "b"]))
    with pytest.raises(GlocomError, match="empty"):
        npmi_coherence(TopicSet([["a", "b"]]), empty)


def _random_npmi_case(seed, top_n):
    """A seeded reference with two words in every document and some that
    never occur, and topics that mix vocabulary words with words outside
    it."""
    rng = np.random.default_rng(seed)
    D, V = int(rng.integers(1, 40)), int(rng.integers(top_n + 4, 60))
    counts = rng.poisson(0.4, size=(D, V))
    counts[:, :2] += 1  # w0 and w1 in every document
    counts[:, V - 3:] = 0  # the last three words never occur
    vocab = Vocabulary([f"w{i}" for i in range(V)])
    pool = vocab.words + [f"out{i}" for i in range(5)]
    topics = [["w0", "w1", *rng.choice(pool[2:], top_n - 2, replace=False).tolist()]]
    topics += [rng.choice(pool, top_n, replace=False).tolist()
               for _ in range(int(rng.integers(1, 8)))]
    return TopicSet(topics), BowCorpus(sp.csr_matrix(counts), vocab)


@pytest.mark.parametrize("top_n", range(2, 16))
def test_npmi_equals_pair_loop_on_random_corpora(top_n):
    for seed in range(3):
        topics, ref = _random_npmi_case(100 * top_n + seed, top_n)
        overall, per_topic = npmi_coherence(topics, ref)
        want_overall, want_per_topic = npmi_coherence_loop(topics, ref)
        assert overall == want_overall
        assert per_topic.tolist() == want_per_topic.tolist()


def test_npmi_equals_pair_loop_when_no_topic_word_is_in_the_reference():
    ref = corpus_from_docs([["a", "b"], ["b", "c"]])
    topics = TopicSet([["x", "y", "z"], ["u", "v", "x"]])
    overall, per_topic = npmi_coherence(topics, ref)
    assert (overall, per_topic.tolist()) == (-1.0, [-1.0, -1.0])
    want_overall, want_per_topic = npmi_coherence_loop(topics, ref)
    assert overall == want_overall
    assert per_topic.tolist() == want_per_topic.tolist()


# ------------------------------------------------------------ metrics.json


def test_write_metrics_with_and_without_labels(tmp_path):
    path = str(tmp_path / "metrics.json")
    write_metrics(path, td=0.8, npmi=0.1, npmi_per_topic=np.array([0.2, 0.0]),
                  purity=0.9, nmi=0.75)
    with open(path) as fh:
        data = json.load(fh)
    assert data == {
        "td": 0.8,
        "purity": 0.9,
        "nmi": 0.75,
        "npmi": 0.1,
        "npmi_per_topic": [0.2, 0.0],
    }
    write_metrics(path, td=0.8, npmi=0.1, npmi_per_topic=[0.1])
    with open(path) as fh:
        data = json.load(fh)
    assert data["purity"] is None and data["nmi"] is None
