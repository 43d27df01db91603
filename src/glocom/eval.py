"""Topic and clustering quality metrics, and the files eval reads and writes.

Covers topic diversity over top-N word lists, purity and NMI of the
argmax document clustering against gold labels, and document-level NPMI
coherence against a reference corpus. Conventions that the literature
leaves open are fixed here and relied on by the tests: NMI normalizes by
the arithmetic mean of the two entropies (natural log, 0/0 -> 0), and
NPMI pairs involving a word absent from the reference, or a pair that
never co-occurs, score the floor value -1.
"""

import json
from dataclasses import dataclass

import numpy as np

from .corpus import BowCorpus, open_text
from .errors import GlocomError

NPMI_EPS = 1e-12


@dataclass
class TopicSet:
    """Ranked top-N word lists, one list per topic, uniform N."""

    topics: list[list[str]]

    def __post_init__(self):
        if not self.topics:
            raise GlocomError("TopicSet needs at least one topic")
        n = len(self.topics[0])
        for k, words in enumerate(self.topics):
            if len(words) != n:
                raise GlocomError(
                    f"topic {k} has {len(words)} words, topic 0 has {n}"
                )
            if len(set(words)) != len(words):
                raise GlocomError(f"topic {k} repeats a word")
        if n == 0:
            raise GlocomError("topics are empty word lists")

    @property
    def num_topics(self) -> int:
        return len(self.topics)

    @property
    def top_n(self) -> int:
        return len(self.topics[0])


def write_topics(top_words: list[list[str]], path: str) -> None:
    """One topic per line: topic id then its top words, space-separated."""
    with open(path, "w", encoding="utf-8") as fh:
        for k, words in enumerate(top_words):
            fh.write(f"{k} " + " ".join(words) + "\n")


def read_topics(path: str) -> TopicSet:
    """Parse 'k w1 w2 ...' lines as written by write_topics."""
    topics = {}
    with open_text(path, GlocomError) as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            try:
                k = int(parts[0])
            except ValueError as exc:
                raise GlocomError(f"bad topic line in {path}: {line!r}") from exc
            if k in topics:
                raise GlocomError(f"topic {k} listed twice in {path}")
            topics[k] = parts[1:]
    if not topics:
        raise GlocomError(f"no topics found in {path}")
    if sorted(topics) != list(range(len(topics))):
        raise GlocomError(f"topic ids in {path} are not 0..K-1")
    return TopicSet([topics[k] for k in range(len(topics))])


def topic_diversity(topics: TopicSet) -> float:
    """Distinct words across all lists over total list slots."""
    all_words = [w for t in topics.topics for w in t]
    return len(set(all_words)) / len(all_words)


def _as_labels(x, name: str) -> np.ndarray:
    arr = np.asarray(x)
    if arr.ndim != 1 or arr.size == 0:
        raise GlocomError(f"{name} must be a non-empty 1-d label array")
    return arr


def _contingency(predicted, gold) -> np.ndarray:
    p = _as_labels(predicted, "predicted")
    g = _as_labels(gold, "gold")
    if p.shape[0] != g.shape[0]:
        raise GlocomError(
            f"{p.shape[0]} predicted labels vs {g.shape[0]} gold labels"
        )
    rows, pi = np.unique(p, return_inverse=True)
    cols, gi = np.unique(g, return_inverse=True)
    table = np.bincount(pi * len(cols) + gi, minlength=len(rows) * len(cols))
    return table.reshape(len(rows), len(cols))


def purity(predicted, gold) -> float:
    """Fraction of documents in their cluster's majority gold class."""
    table = _contingency(predicted, gold)
    return float(table.max(axis=1).sum() / table.sum())


def _entropy(counts: np.ndarray) -> float:
    n = counts.sum()
    p = counts[counts > 0] / n
    return float(-(p * np.log(p)).sum())


def nmi(predicted, gold) -> float:
    """Mutual information over the arithmetic mean of the marginal
    entropies, natural log; 0/0 (both sides constant) -> 0."""
    table = _contingency(predicted, gold).astype(np.float64)
    n = table.sum()
    pr = table.sum(axis=1)
    gc = table.sum(axis=0)
    i, j = np.nonzero(table)
    nij = table[i, j]
    terms = (nij / n) * np.log(nij * n / (pr[i] * gc[j]))
    # a left-to-right sum: np.sum's pairwise order can move the last bit
    mi = np.cumsum(terms)[-1]
    denom = 0.5 * (_entropy(pr) + _entropy(gc))
    if denom == 0.0:
        return 0.0
    # mi can dip an ulp below zero on near-independent tables
    return float(max(mi, 0.0) / denom)


def assign_documents(theta: np.ndarray) -> np.ndarray:
    """Argmax topic per document; ties go to the lowest topic index."""
    theta = np.asarray(theta, dtype=np.float64)
    if theta.ndim != 2 or theta.shape[0] == 0:
        raise GlocomError("theta must be a non-empty D x K matrix")
    return np.argmax(theta, axis=1).astype(np.int64)


def npmi_coherence(
    topics: TopicSet, reference: BowCorpus
) -> tuple[float, np.ndarray]:
    """Mean over topics of mean pairwise NPMI of the top-N words, using
    whole documents of ``reference`` as co-occurrence windows.

    Returns (overall mean, per-topic means). A word missing from the
    reference vocabulary, or never occurring in it, contributes -1 to
    every pair it appears in.
    """
    if reference.num_docs == 0:
        raise GlocomError("reference corpus is empty")
    if topics.top_n < 2:
        raise GlocomError("need at least two words per topic for pair NPMI")
    D, V = reference.counts.shape
    ids = [[reference.vocab.index.get(w, V) for w in t] for t in topics.topics]
    # column V, a word outside the reference, sorts last and is never present
    cols, ids = np.unique(ids, return_inverse=True)
    ids = ids.reshape(topics.num_topics, topics.top_n)  # each word's index in cols
    present = (reference.counts[:, cols[cols < V]] > 0).astype(np.float64)
    present.resize(D, len(cols))
    joint = (present.T @ present).toarray()  # document co-occurrence counts
    p = np.diag(joint) / D
    first, second = np.triu_indices(topics.top_n, 1)
    a, b = ids[:, first], ids[:, second]  # (K, pairs), each topic's i < j order
    p_ab = joint[a, b] / D
    num = np.log(p_ab + NPMI_EPS) - np.log(p[a] * p[b] + NPMI_EPS)
    # epsilon can push the ratio an ulp past the analytic [-1, 1] range
    npmi = np.clip(num / -np.log(p_ab + NPMI_EPS), -1.0, 1.0)
    # both words in every document: 0/0 in the formula, limit is 1
    npmi = np.where(p_ab >= 1.0, 1.0, np.where(p_ab <= 0.0, -1.0, npmi))
    # a C-contiguous row sums in the order np.mean sums one topic's list
    per_topic = np.ascontiguousarray(npmi).mean(axis=1)
    return float(per_topic.mean()), per_topic


def write_metrics(
    path: str,
    td: float,
    npmi: float,
    npmi_per_topic: np.ndarray,
    purity: float = None,
    nmi: float = None,
) -> None:
    """Flat metrics.json; purity/nmi are null when no gold labels exist."""
    payload = {
        "td": float(td),
        "purity": None if purity is None else float(purity),
        "nmi": None if nmi is None else float(nmi),
        "npmi": float(npmi),
        "npmi_per_topic": [float(v) for v in np.asarray(npmi_per_topic)],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
