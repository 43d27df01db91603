"""Memory scales with the corpus's nonzeros, not with D x V."""

import tracemalloc

import numpy as np
import scipy.sparse as sp

from glocom.aggregation import build_global_docs, kmeans
from glocom.corpus import BowCorpus, Vocabulary, tfidf
from glocom.model import infer
from glocom.trainer import TrainConfig, build_setup, train_from_setup


def test_pipeline_peak_memory_scales_with_nonzeros():
    D = V = 4000
    rng = np.random.default_rng(0)
    words = rng.integers(0, V, size=(D, 8))  # 8 tokens per document
    counts = sp.csr_matrix(
        (np.ones(words.size, dtype=np.int64), (np.repeat(np.arange(D), 8), words.ravel())),
        shape=(D, V),
    )
    corpus = BowCorpus(counts, Vocabulary([f"w{i}" for i in range(V)]))
    # a training step holds about nine B x V float arrays, so the batch is
    # kept small enough for them to fit under the bound as well
    cfg = TrainConfig(K=10, G=20, epochs=1, batch_size=8, hidden_width=8, embed_dim=8,
                      ecr_nu=0.05)
    bound = D * V * 8 / 10  # a tenth of one dense float64 copy

    tracemalloc.start()
    try:
        peaks = {}
        tracemalloc.reset_peak()
        emb = tfidf(corpus)
        peaks["tfidf"] = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        assignment = kmeans(emb, cfg.G, seed=0).assignment
        peaks["kmeans"] = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        setup = build_setup(corpus, cfg, assignment)
        peaks["build_setup"] = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        model, _ = train_from_setup(setup)
        peaks["train"] = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        infer(model, corpus.counts, assignment, build_global_docs(corpus, assignment),
              corpus.vocab.words)
        peaks["infer"] = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for stage, peak in peaks.items():
        assert peak < bound, f"{stage} peaked at {peak / 2**20:.1f} MiB"
