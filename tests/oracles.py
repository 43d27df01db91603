"""Reference code that only tests use.

The model never builds the augmented targets x + eta * x^g as an array;
the dense formulas here do, the direct way, so tests can compare the two.
``save_embeddings`` writes the binary document-embedding format that
``glocom.corpus.load_embeddings`` reads. The set-up loops (``Counter``
per document, one f-string per written value, k-means centroid sums as an
indicator-matrix product) are the references for the array versions in
``glocom.corpus`` and ``glocom.aggregation``. ``encoder_hidden_in`` is the
encoder computed with its first-layer weight laid out (hidden, in_dim), as
checkpoints store it, the reference for the (in_dim, hidden) layout the
encoder holds. ``ReferenceAdam`` and ``direct_expressions`` give the
training step as three passes (gradients summed into zeroed buffers of the
optimiser's own by the direct squared-distance and beta-backward
expressions, then Adam over each whole buffer), the reference for the step
that applies each gradient in the backward pass.
``sinkhorn_log_per_iteration`` is the transport loop with its tests made
after every iteration, the reference for the loop that tests a block of
iterations at once. ``GradientSink`` collects a backward pass's gradients
by parameter name, for tests to compare. The rest are helpers that only
tests call: the loss alone, topic matching against planted topics, and
word vectors profiled from the clusters.
"""

import contextlib
import struct
from collections import Counter

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linear_sum_assignment
from scipy.special import logsumexp

import glocom.aggregation
import glocom.model
import glocom.trainer
from glocom.aggregation import _indicator, build_global_corpus
from glocom.corpus import _GEMB_MAGIC, BowCorpus, EmbeddingMatrix, Vocabulary, row_sq_norms
from glocom.errors import CorpusError, GlocomError
from glocom.kernels import _SAFE, Scaling
from glocom.numerics import (
    ADAM_BETA1,
    ADAM_BETA2,
    adam_step_scalars,
    clamp_logvar,
    softmax_backward,
    softplus_backward,
    softplus_forward,
)


def save_embeddings(matrix, path):
    """Binary layout: magic "GEMB", u64-LE rows, u64-LE cols, f32-LE row-major."""
    M = np.asarray(matrix, dtype=np.float32)
    with open(path, "wb") as fh:
        fh.write(_GEMB_MAGIC)
        fh.write(struct.pack("<QQ", M.shape[0], M.shape[1]))
        fh.write(np.ascontiguousarray(M).tobytes())


def _dense(X):
    """X as a float64 array, whether CSR or dense."""
    return np.asarray(X.toarray() if sp.issparse(X) else X, dtype=np.float64)


def augmented_docs(corpus, global_docs, assignment, eta):
    """x + eta * (own cluster's global doc) for the whole corpus, dense;
    ``global_docs`` CSR or dense."""
    assert global_docs.shape[1] == corpus.num_words
    return corpus.dense() + eta * _dense(global_docs)[assignment]


def dense_target_reconstruction(x, context, inv, theta_gd, beta):
    """``glocom.model.reconstruction`` computed on a dense B x V target:
    logsumexp log-probabilities, -sum(x_aug * logp) and the dense dlogits."""
    x_aug = _dense(x) + _dense(context)[inv]
    B = x_aug.shape[0]
    logits = theta_gd @ beta.T
    logp = logits - logsumexp(logits, axis=1, keepdims=True)
    recon = -np.sum(x_aug * logp, axis=1)
    p = np.exp(logp)
    dlogits = (x_aug.sum(axis=1)[:, None] * p - x_aug) / B
    return recon, dlogits @ beta, dlogits.T @ theta_gd


@contextlib.contextmanager
def dense_targets():
    """Within the block, the model's decoder runs on dense targets."""
    original = glocom.model.reconstruction
    glocom.model.reconstruction = dense_target_reconstruction
    try:
        yield
    finally:
        glocom.model.reconstruction = original


def build_vocabulary_loop(raw_docs, min_freq):
    """One pass of ``glocom.corpus.preprocess``'s vocabulary filter as a
    loop over tokens: the words with frequency >= min_freq, in
    first-occurrence order."""
    if min_freq < 1:
        raise CorpusError(f"min_freq must be >= 1, got {min_freq}")
    if not raw_docs:
        raise CorpusError("cannot build a vocabulary from an empty corpus")
    freq = Counter()
    order = []
    for doc in raw_docs:
        for tok in doc:
            if tok not in freq:
                order.append(tok)
            freq[tok] += 1
    kept = [w for w in order if freq[w] >= min_freq]
    if not kept:
        raise CorpusError(f"vocabulary is empty after min_freq={min_freq} filtering")
    return Vocabulary(kept)


def build_bow_loop(raw_docs, vocab, min_terms, labels=None):
    """One pass of ``glocom.corpus.preprocess``'s document filter with a
    ``Counter`` per document: the in-vocabulary counts of the documents
    with at least min_terms distinct in-vocabulary words."""
    if min_terms < 1:
        raise CorpusError(f"min_terms must be >= 1, got {min_terms}")
    indptr, indices, data, kept = [0], [], [], []
    for d, doc in enumerate(raw_docs):
        cnt = Counter(vocab.index[t] for t in doc if t in vocab.index)
        if len(cnt) < min_terms:
            continue
        kept.append(d)
        for w in sorted(cnt):
            indices.append(w)
            data.append(cnt[w])
        indptr.append(len(indices))
    if not kept:
        raise CorpusError(f"all documents dropped at min_terms={min_terms}")
    counts = sp.csr_matrix(
        (np.asarray(data, dtype=np.int64), np.asarray(indices, dtype=np.int64), indptr),
        shape=(len(kept), len(vocab)),
    )
    kept_labels = None
    if labels is not None:
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape[0] != len(raw_docs):
            raise CorpusError(f"{labels.shape[0]} labels for {len(raw_docs)} raw documents")
        kept_labels = labels[kept]
    return BowCorpus(counts, vocab, kept_labels), kept


def preprocess_loop(raw_docs, min_freq=3, min_terms=2, labels=None):
    """``glocom.corpus.preprocess``: the two loops above, alternated on the
    kept documents until no document drops."""
    kept = list(range(len(raw_docs)))
    docs = [list(d) for d in raw_docs]
    cur_labels = None if labels is None else np.asarray(labels, dtype=np.int64)
    while True:
        vocab = build_vocabulary_loop(docs, min_freq)
        bow, sub = build_bow_loop(docs, vocab, min_terms, cur_labels)
        if len(sub) == len(docs):
            return bow, kept
        kept = [kept[i] for i in sub]
        docs = [docs[i] for i in sub]
        if cur_labels is not None:
            cur_labels = cur_labels[sub]


def write_bow_loop(corpus, path):
    """``glocom.corpus.write_bow`` entry by entry, in COO order sorted by
    document, then word."""
    coo = corpus.counts.tocoo()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{corpus.num_docs} {corpus.num_words} {coo.nnz}\n")
        for i in np.lexsort((coo.col, coo.row)):
            fh.write(f"{coo.row[i]} {coo.col[i]} {coo.data[i]}\n")


def write_label_file_loop(values, path):
    """``glocom.corpus.write_label_file`` one f-string per value."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{int(v)}\n" for v in values))


def indicator_sums(X, entry_row, assign, G):
    """``glocom.aggregation._cluster_sums`` as the G x N membership matrix
    times X."""
    return (_indicator(assign, G, np.float64) @ X).toarray()


@contextlib.contextmanager
def indicator_centroid_sums():
    """Within the block, k-means sums its CSR centroids as indicator products."""
    original = glocom.aggregation._cluster_sums
    glocom.aggregation._cluster_sums = indicator_sums
    try:
        yield
    finally:
        glocom.aggregation._cluster_sums = original


def encoder_hidden_in(enc, X, dmu, dlv):
    """``glocom.numerics.Encoder`` forward and backward with the first-layer
    weight held (hidden, in_dim): a1 = X @ W.T + b, and W's gradient
    (X.T @ da1).T. Returns (a1, mu, lv) and the gradients of
    ``enc.params()`` in order, the first layer's as (hidden, in_dim)."""
    W1 = np.ascontiguousarray(enc.l1.W.value.T)
    a1 = X @ W1.T + enc.l1.b.value[None, :]
    h1, e1 = softplus_forward(a1)
    (W2, b2), (Wmu, bmu), (Wlv, blv) = (
        (layer.W.value, layer.b.value) for layer in (enc.l2, enc.mu_head, enc.lv_head))
    a2 = h1 @ W2 + b2
    h2, e2 = softplus_forward(a2)
    mu = h2 @ Wmu + bmu
    lv, mask = clamp_logvar(h2 @ Wlv + blv)
    dlv = dlv * mask
    da2 = softplus_backward(dmu @ Wmu.T + dlv @ Wlv.T, a2, e2)
    da1 = softplus_backward(da2 @ W2.T, a1, e1)
    grads = [(X.T @ da1).T, da1.sum(axis=0), h1.T @ da2, da2.sum(axis=0),
             h2.T @ dmu, dmu.sum(axis=0), h2.T @ dlv, dlv.sum(axis=0)]
    return (a1, mu, lv), grads


class GradientSink(dict):
    """An ``update(param, grad)`` for a backward pass that keeps each
    parameter's gradient under its name, once per parameter."""

    def __call__(self, p, g):
        assert p.name not in self, f"{p.name} given two gradients"
        self[p.name] = g


def squared_distances_direct(X, C):
    """``glocom.ecr.squared_distances`` as the sum of three N x K arrays,
    |x|^2 - 2 X C^T + |c|^2, the expression k-means used; X dense or CSR."""
    d2 = row_sq_norms(X)[:, None] - 2.0 * np.asarray(X @ C.T) + row_sq_norms(C)[None, :]
    np.maximum(d2, 0.0, out=d2)
    return d2


def compute_beta_backward_direct(space, beta, dbeta, extra_dsqd, update):
    """``glocom.model.compute_beta_backward`` with a temporary per operation."""
    dA = softmax_backward(dbeta, beta)
    dsqd = -dA / space.tau
    if extra_dsqd is not None:
        dsqd = dsqd + extra_dsqd
    W, T = space.W.value, space.T.value
    update(space.W, 2.0 * (W * dsqd.sum(axis=1)[:, None] - dsqd @ T))
    update(space.T, 2.0 * (T * dsqd.sum(axis=0)[:, None] - dsqd.T @ W))


@contextlib.contextmanager
def direct_expressions():
    """Within the block, the model and the trainer form squared distances
    and the beta backward with the direct expressions."""
    saved = [(glocom.model, "compute_beta_backward", compute_beta_backward_direct),
             (glocom.model, "squared_distances", squared_distances_direct),
             (glocom.trainer, "squared_distances", squared_distances_direct)]
    originals = [getattr(module, name) for module, name, _ in saved]
    for module, name, oracle in saved:
        setattr(module, name, oracle)
    try:
        yield
    finally:
        for (module, name, _), original in zip(saved, originals):
            setattr(module, name, original)


def adam_whole_array(value, m, v, g, t, lr):
    """One Adam update of ``value``, ``m`` and ``v`` in place at step t,
    each operation over the whole array; ``m`` and ``v`` hold the moments
    divided by (1 - beta1) and (1 - beta2), as ``glocom.numerics.Adam``
    holds them."""
    step, eps_t = adam_step_scalars(t, lr)
    m *= ADAM_BETA1
    m += g
    v *= ADAM_BETA2
    v += g**2
    value -= step * (m / (np.sqrt(v) + eps_t))


class ReferenceAdam:
    """The three-pass step's optimiser: ``update`` adds each gradient into
    a zeroed buffer of its own, and ``step`` updates every parameter from
    its buffer with the whole-array formula, then zeroes the buffers for
    the next step."""

    def __init__(self, params, lr=0.002):
        self.params, self.lr, self.step_count = params, lr, 0
        self.m = {p.name: np.zeros_like(p.value) for p in params}
        self.v = {p.name: np.zeros_like(p.value) for p in params}
        self.grad = {p.name: np.zeros_like(p.value) for p in params}

    def update(self, p, g):
        self.grad[p.name] += g

    def step(self):
        self.step_count += 1
        for p in self.params:
            adam_whole_array(p.value, self.m[p.name], self.v[p.name], self.grad[p.name],
                             self.step_count, self.lr)
        for g in self.grad.values():
            g.fill(0.0)


def sinkhorn_log_per_iteration(Mr, max_iters, tol):
    """``glocom.kernels.sinkhorn_log`` with the range and stop tests made
    after every iteration, each half-update into a new array."""

    def in_range(s):
        return bool(s.max() < _SAFE and s.min() > 1.0 / _SAFE)

    V, K = Mr.shape
    a, b = np.full(V, 1.0 / V), np.full(K, 1.0 / K)
    u, v = np.ones(V), np.ones(K)
    iters_used = 0
    converged = False
    row_err = col_err = np.inf
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        f = -Mr.max(axis=1)
        if not np.all(np.isfinite(f)):
            return Scaling(np.full(V, np.inf), v, 1, False, np.zeros((V, K)),
                           row_err, col_err)
        kernel = np.exp(Mr + f[:, None])
        Kv = kernel.sum(axis=1)
        for it in range(1, max_iters + 1):
            iters_used = it
            u = a / Kv
            KTu = kernel.T @ u
            v = b / KTu
            if not (in_range(u) and in_range(v)):
                f += np.log(u)
                g = np.log(b) - logsumexp(Mr + f[:, None], axis=0)
                if not np.all(np.isfinite(g)):
                    u = np.full(V, np.inf)
                    break
                kernel = np.exp(Mr + f[:, None] + g[None, :])
                u, v = np.ones(V), np.ones(K)
                KTu = kernel.sum(axis=0)
            Kv = kernel @ v
            row_err = np.abs(u * Kv - a).sum()
            col_err = np.abs(v * KTu - b).sum()
            if row_err < tol and col_err < tol:
                converged = True
                break
    return Scaling(u, v, iters_used, converged, kernel, float(row_err), float(col_err))


def discard(p, g):
    """An ``update(param, grad)`` that drops every gradient."""


def corpus_loss(model, x, cluster_ids, global_docs, noise_g, noise_d, eta, **kw):
    """The training loss of ``model.forward_backward``; its gradients are
    dropped."""
    loss, _, _ = model.forward_backward(x, cluster_ids, global_docs, noise_g, noise_d, eta,
                                        discard, **kw)
    return loss


def match_topics(learned_beta, planted_beta):
    """Best one-to-one topic matching by column cosine similarity.

    Returns (perm, scores): perm[k] is the learned column assigned to
    planted column k, scores[k] its cosine similarity. Solved exactly as a
    linear assignment problem.
    """
    if learned_beta.shape != planted_beta.shape:
        raise GlocomError(
            f"shape mismatch: {learned_beta.shape} vs {planted_beta.shape}"
        )

    def _unit_cols(M):
        n = np.linalg.norm(M, axis=0)
        n[n == 0] = 1.0
        return M / n

    L = _unit_cols(np.asarray(learned_beta, dtype=np.float64))
    P = _unit_cols(np.asarray(planted_beta, dtype=np.float64))
    S = P.T @ L  # S[planted, learned]
    planted_idx, learned_idx = linear_sum_assignment(-S)
    perm = np.empty(S.shape[0], dtype=np.int64)
    perm[planted_idx] = learned_idx
    scores = S[planted_idx, learned_idx][np.argsort(planted_idx)]
    return perm, scores


def profile_word_embeddings(corpus, assignment, G=None):
    """Corpus-derived word vectors from the global documents.

    Each word gets its distribution of relative frequency across the G
    clusters (share of each cluster's mass, renormalized per word), then
    every cluster dimension is standardized. Words loading on the same
    clusters land close together, so this serves where pretrained vectors
    do not exist for the vocabulary (synthetic corpora above all).
    """
    gd = build_global_corpus(corpus, assignment, G).global_docs.toarray()
    totals = gd.sum(axis=1, keepdims=True)
    share = np.divide(gd, totals, out=np.zeros_like(gd), where=totals > 0).T
    row = share.sum(axis=1, keepdims=True)
    prof = np.divide(
        share,
        row,
        out=np.full_like(share, 1.0 / share.shape[1]),
        where=row > 0,
    )
    prof = (prof - prof.mean(axis=0)) / (prof.std(axis=0) + 1e-12)
    return EmbeddingMatrix(prof)
