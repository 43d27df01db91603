"""Synthetic corpora sampled from the model's own generative story.

Planted topics use disjoint high-mass word blocks so recovery is
measurable; cluster topic distributions are rejection-sampled to have
distinct, clearly dominant topics (otherwise two clusters can plant the
same signal and no method could tell them apart).
"""

from dataclasses import dataclass, fields

import numpy as np
import scipy.sparse as sp

from .corpus import BowCorpus, Vocabulary
from .errors import ConfigError, GlocomError
from .numerics import softmax_forward
from .rng import substream

_MAX_RETRIES = 20000


@dataclass
class SyntheticSpec:
    V: int = 100
    K: int = 5
    G: int = 5
    D: int = 1000
    len_min: int = 4
    len_max: int = 12
    epsilon_true: float = 0.01
    block_mass: float = 0.9  # planted-topic concentration on its own block
    dominance_margin: float = 0.7  # dominant minus runner-up topic weight
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            if f.type is float and not np.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if min(self.V, self.K, self.G, self.D) < 1:
            raise ConfigError("V, K, G, D must all be positive")
        if self.len_min < 2 or self.len_max < self.len_min:
            raise ConfigError("need 2 <= len_min <= len_max")
        if not (0 < self.block_mass < 1):
            raise ConfigError("block_mass must lie in (0, 1)")
        if self.epsilon_true < 0:
            raise ConfigError("epsilon_true must be >= 0")
        if self.G > self.D:
            raise ConfigError("more clusters than documents")
        if self.K > self.V:
            raise ConfigError("more topics than words")


@dataclass
class SyntheticTruth:
    beta: np.ndarray  # (V, K)
    theta_g: np.ndarray  # (G, K)
    theta_gd: np.ndarray  # (D, K)
    labels: np.ndarray  # (D,) cluster id per document


def planted_beta(V: int, K: int, block_mass: float) -> np.ndarray:
    """Each topic concentrates ``block_mass`` on its own word block of size
    ceil(V/K) (the last block absorbs the remainder), spreading the rest
    uniformly over the off-block words."""
    bs = -(-V // K)  # ceil
    beta = np.zeros((V, K))
    for k in range(K):
        lo, hi = k * bs, min((k + 1) * bs, V)
        block = hi - lo
        if block <= 0:
            raise GlocomError(f"topic {k} owns no words (V={V}, K={K})")
        beta[lo:hi, k] = block_mass / block
        off = V - block
        if off > 0:
            rest = (1.0 - block_mass) / off
            beta[:lo, k] = rest
            beta[hi:, k] = rest
        else:
            beta[lo:hi, k] = 1.0 / block
    return beta


def _sample_cluster_topics(rng, G, K, margin):
    """softmax(N(0,I)) rows, each re-drawn until it has a clear dominant topic
    and (when G <= K) one no earlier cluster already claimed."""
    if K == 1:
        return np.ones((G, 1))
    theta = np.zeros((G, K))
    used: set[int] = set()
    for g in range(G):
        for _ in range(_MAX_RETRIES):
            row = softmax_forward(rng.standard_normal((1, K)))[0]
            order = np.sort(row)
            if order[-1] - order[-2] < margin:
                continue
            top = int(np.argmax(row))
            if G <= K and top in used:
                continue
            theta[g] = row
            used.add(top)
            break
        else:
            raise GlocomError(
                f"could not draw cluster {g} with a dominant topic over "
                f"{K} topics at margin {margin}"
            )
    return theta


def generate(spec: SyntheticSpec) -> tuple[BowCorpus, SyntheticTruth]:
    """Sample a corpus with known beta, theta_g, theta_gd and cluster labels.

    Documents with fewer than two distinct words are re-drawn (bounded);
    label assignments leaving a cluster empty are re-drawn likewise.
    """
    rng = substream(spec.seed, "synthesis")
    beta = planted_beta(spec.V, spec.K, spec.block_mass)
    theta_g = _sample_cluster_topics(rng, spec.G, spec.K, spec.dominance_margin)

    for _ in range(_MAX_RETRIES):
        labels = rng.integers(0, spec.G, size=spec.D)
        if np.unique(labels).size == spec.G:
            break
    else:
        raise GlocomError(f"could not fill all {spec.G} clusters with {spec.D} docs")

    if spec.epsilon_true > 0:
        rho = 1.0 + np.sqrt(spec.epsilon_true) * rng.standard_normal((spec.D, spec.K))
    else:
        rho = np.ones((spec.D, spec.K))
    theta_gd = softmax_forward(theta_g[labels] * rho)
    lengths = rng.integers(spec.len_min, spec.len_max + 1, size=spec.D)

    # each document's nonzero counts, as CSR rows
    words, values = [], []
    for d in range(spec.D):
        for _ in range(_MAX_RETRIES):
            counts = np.zeros(spec.V, dtype=np.int64)
            z_counts = rng.multinomial(lengths[d], theta_gd[d])
            for k in np.flatnonzero(z_counts):
                counts += rng.multinomial(z_counts[k], beta[:, k])
            present = np.flatnonzero(counts)
            if present.size >= 2:
                words.append(present)
                values.append(counts[present])
                break
        else:
            raise GlocomError(f"document {d} never drew two distinct words")
    indptr = np.concatenate(([0], np.cumsum([w.size for w in words])))
    rows = sp.csr_matrix((np.concatenate(values), np.concatenate(words), indptr),
                         shape=(spec.D, spec.V))

    width = len(str(spec.V - 1))
    vocab = Vocabulary([f"w{str(i).zfill(width)}" for i in range(spec.V)])
    corpus = BowCorpus(rows, vocab, labels=labels)
    return corpus, SyntheticTruth(beta, theta_g, theta_gd, labels)

