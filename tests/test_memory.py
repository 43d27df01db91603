"""Memory scales with the corpus's nonzeros, not with D x V, and a model
holds only its parameter values."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from glocom.aggregation import kmeans
from glocom.corpus import BowCorpus, Vocabulary, tfidf
from glocom.eval import TopicSet, npmi_coherence
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


def _pipeline_peaks_below_bound(ablation):
    corpus = _corpus()
    # the decoder's softmax is one B x V float array: at the default
    # B=200 it alone is half the bound, beside the parameters, Adam moments
    # and V x K transport arrays, so the batch here is smaller
    cfg = _config(batch_size=64, ablation=ablation)
    bound = D * V * 8 / 10  # a tenth of one dense float64 copy

    tracemalloc.start()
    try:
        peaks = {}
        tracemalloc.reset_peak()
        emb = tfidf(corpus)
        peaks["tfidf"] = tracemalloc.get_traced_memory()[1]
        assignment = None
        if ablation == "full":
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
        gc = setup.global_corpus
        infer(model, corpus.counts, gc.assignment, gc.global_docs, corpus.vocab.words)
        peaks["infer"] = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for stage, peak in peaks.items():
        assert peak < bound, f"{stage} peaked at {peak / 2**20:.1f} MiB"


def _step_growth_per_batch_row_below_bound(ablation):
    # a step may hold about one B x V float array (the decoder's softmax):
    # less than two per added batch row between B=32 and B=200
    corpus = _corpus()
    assignment = None
    if ablation == "full":
        assignment = kmeans(tfidf(corpus), 20, seed=0).assignment
    peaks = {}
    for B in (32, 200):
        setup = build_setup(corpus, _config(batch_size=B, ablation=ablation), assignment)
        tracemalloc.start()
        try:
            train(setup)
            peaks[B] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    per_row = (peaks[200] - peaks[32]) / (200 - 32)
    assert per_row < 2 * V * 8, f"{per_row / 2**20:.3f} MiB per batch row"


def test_pipeline_peak_memory_scales_with_nonzeros():
    _pipeline_peaks_below_bound("full")


def test_training_step_memory_grows_with_batch_rows_not_rows_times_vocabulary():
    _step_growth_per_batch_row_below_bound("full")


# under no_clustering every document is its own cluster: G = D global
# documents, which must cost their nonzeros, not D x V
def test_pipeline_peak_memory_scales_with_nonzeros_under_no_clustering():
    _pipeline_peaks_below_bound("no_clustering")


def test_training_step_memory_grows_with_batch_rows_under_no_clustering():
    _step_growth_per_batch_row_below_bound("no_clustering")


def test_infer_peak_under_no_clustering_stays_near_clustered_peak():
    # G = D global documents go through the encoder in blocks, as the local
    # documents do, so infer's working set does not grow with G
    corpus = _corpus()
    model = GlocomModel(V, 10, embed_dim=8, hidden=200, seed=0)
    peaks = {}
    for ablation, assignment in (("full", np.arange(D) % 20), ("no_clustering", None)):
        gc = build_setup(corpus, _config(ablation=ablation), assignment).global_corpus
        tracemalloc.start()
        try:
            infer(model, corpus.counts, gc.assignment, gc.global_docs, corpus.vocab.words)
            peaks[ablation] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["no_clustering"] <= 2 * peaks["full"], (
        f"infer peaked at {peaks['no_clustering'] / 2**20:.1f} MiB under no_clustering, "
        f"{peaks['full'] / 2**20:.1f} MiB at G=20"
    )


def test_npmi_peak_memory_scales_with_nonzeros():
    # 50 topics of 15 words: the co-occurrence counts are over at most 750
    # distinct words, and the reference is read only at its nonzeros
    corpus = _corpus()
    rng = np.random.default_rng(1)
    topics = TopicSet([[corpus.vocab.words[i] for i in rng.choice(V, 15, replace=False)]
                       for _ in range(50)])
    bound = D * V * 8 / 10
    tracemalloc.start()
    try:
        npmi_coherence(topics, corpus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, f"npmi_coherence peaked at {peak / 2**20:.1f} MiB"


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
