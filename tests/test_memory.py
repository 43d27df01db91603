"""Memory scales with the corpus's nonzeros, not with D x V, and a model
holds only its parameter values."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from glocom.aggregation import build_global_docs, kmeans
from glocom.corpus import BowCorpus, Vocabulary, tfidf
from glocom.model import GlocomModel, infer, load_checkpoint, save_checkpoint
from glocom.trainer import TrainConfig, build_setup, train


D = V = 4000


def _corpus():
    rng = np.random.default_rng(0)
    words = rng.integers(0, V, size=(D, 8))  # 8 tokens per document
    counts = sp.csr_matrix(
        (np.ones(words.size, dtype=np.int64), (np.repeat(np.arange(D), 8), words.ravel())),
        shape=(D, V),
    )
    return BowCorpus(counts, Vocabulary([f"w{i}" for i in range(V)]))


def _config(**kw):
    return TrainConfig(K=10, G=20, epochs=1, hidden_width=8, embed_dim=8, ecr_nu=0.05, **kw)


def test_pipeline_peak_memory_scales_with_nonzeros():
    corpus = _corpus()
    # the decoder's softmax is one B x V float array: at the default
    # B=200 it alone is half the bound, beside the parameters, Adam moments
    # and V x K transport arrays, so the batch here is smaller
    cfg = _config(batch_size=64)
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
        model, _ = train(setup)
        peaks["train"] = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        infer(model, corpus.counts, assignment, build_global_docs(corpus, assignment),
              corpus.vocab.words)
        peaks["infer"] = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for stage, peak in peaks.items():
        assert peak < bound, f"{stage} peaked at {peak / 2**20:.1f} MiB"


def test_training_step_memory_grows_with_batch_rows_not_rows_times_vocabulary():
    # a step may hold about one B x V float array (the decoder's softmax):
    # less than two per added batch row between B=32 and B=200
    corpus = _corpus()
    assignment = kmeans(tfidf(corpus), 20, seed=0).assignment
    peaks = {}
    for B in (32, 200):
        setup = build_setup(corpus, _config(batch_size=B), assignment)
        tracemalloc.start()
        try:
            train(setup)
            peaks[B] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    per_row = (peaks[200] - peaks[32]) / (200 - 32)
    assert per_row < 2 * V * 8, f"{per_row / 2**20:.3f} MiB per batch row"


@pytest.mark.parametrize("source", ["init", "checkpoint"])
def test_model_holds_only_its_parameter_values(tmp_path, source):
    # the corpus_l benchmark's shapes; a parameter holds its value and no
    # gradient buffer, whether drawn at random or loaded from a checkpoint
    build, args = GlocomModel, (2999, 20)
    if source == "checkpoint":
        save_checkpoint(build(*args), str(tmp_path / "c"))
        build, args = load_checkpoint, (str(tmp_path / "c"),)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        model = build(*args)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    values = sum(p.value.nbytes for p in model.params())
    assert held <= 1.05 * values, f"{held / 2**20:.1f} MiB held for {values / 2**20:.1f} MiB"
