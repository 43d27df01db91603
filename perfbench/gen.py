"""Planted-block corpus generator owned by the benchmark.

The benchmark writes its own raw text rather than calling
``glocom.synthetic``: that module is expected to change, and a benchmark
comparison between two commits is only valid if both see byte-identical
inputs. Everything here uses ``random.Random`` with a string seed, which is
stable across Python and numpy versions.

Model: topic k owns a contiguous block of about V/K words; each planted
group g has one dominant topic, distinct from the other groups' while
G <= K. A document has LEN_MIN to LEN_MAX tokens. A token of a group-g
document comes from the dominant topic with probability DOMINANCE and from
a uniformly chosen topic otherwise; within a topic the word falls in the
topic's block with probability BLOCK_MASS and anywhere in the vocabulary
otherwise.

A seed gives VARIANTS corpora of the same shape, and the passes of a run
cycle through them. How long k-means takes to converge, and so the set-up
time, and how well one epoch separates topics differ from corpus to corpus
by up to 2x; a run's median over several corpora varies far less from seed
to seed than one corpus does.
"""

import hashlib
import os
import random
from dataclasses import dataclass

VARIANTS = 8
LEN_MIN, LEN_MAX = 4, 12
DOMINANCE = 0.9
BLOCK_MASS = 0.95


@dataclass(frozen=True)
class CorpusSpec:
    V: int
    K: int
    G: int
    D: int


def generate(spec: CorpusSpec, seed: int, tag: str) -> tuple[list[list[str]], list[int]]:
    """Documents as token lists plus one planted group label per document."""
    rng = random.Random(f"perfbench/{tag}/{seed}")
    V, K = spec.V, spec.K
    blocks = [(k * V // K, (k + 1) * V // K) for k in range(K)]
    topics = rng.sample(range(K), K)
    dominant = [topics[g % K] for g in range(spec.G)]
    docs, labels = [], []
    for _ in range(spec.D):
        g = rng.randrange(spec.G)
        doc = []
        for _ in range(rng.randint(LEN_MIN, LEN_MAX)):
            k = dominant[g] if rng.random() < DOMINANCE else rng.randrange(K)
            if rng.random() < BLOCK_MASS:
                lo, hi = blocks[k]
                w = rng.randrange(lo, hi)
            else:
                w = rng.randrange(V)
            doc.append(f"w{w}")
        docs.append(doc)
        labels.append(g)
    return docs, labels


def variant_dir(inputs: str, variant: int) -> str:
    return os.path.join(inputs, f"v{variant}")


def write_inputs(spec: CorpusSpec, seed: int, out_dir: str, tag: str) -> str:
    """Write corpus.txt and labels.txt of every variant into its
    ``variant_dir``; return the sha256 of all of them."""
    h = hashlib.sha256()
    for variant in range(VARIANTS):
        docs, labels = generate(spec, seed, f"{tag}/v{variant}")
        corpus = "".join(" ".join(d) + "\n" for d in docs).encode()
        label_bytes = "".join(f"{g}\n" for g in labels).encode()
        path = variant_dir(out_dir, variant)
        os.makedirs(path, exist_ok=True)
        with open(os.path.join(path, "corpus.txt"), "wb") as fh:
            fh.write(corpus)
        with open(os.path.join(path, "labels.txt"), "wb") as fh:
            fh.write(label_bytes)
        h.update(corpus)
        h.update(label_bytes)
    return h.hexdigest()
