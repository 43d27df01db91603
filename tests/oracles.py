"""Reference code that only tests use.

The model never builds the augmented targets x + eta * x^g as an array;
the dense formulas here do, the direct way, so tests can compare the two.
``save_embeddings`` writes the binary document-embedding format that
``glocom.corpus.load_embeddings`` reads.
"""

import contextlib
import struct

import numpy as np
import scipy.sparse as sp
from scipy.special import logsumexp

import glocom.model
from glocom.aggregation import ClusterAssignment
from glocom.corpus import _GEMB_MAGIC


def save_embeddings(matrix, path):
    """Binary layout: magic "GEMB", u64-LE rows, u64-LE cols, f32-LE row-major."""
    M = np.asarray(matrix, dtype=np.float32)
    with open(path, "wb") as fh:
        fh.write(_GEMB_MAGIC)
        fh.write(struct.pack("<QQ", M.shape[0], M.shape[1]))
        fh.write(np.ascontiguousarray(M).tobytes())


def augmented_docs(corpus, global_docs, assignment, eta):
    """x + eta * (own cluster's global doc) for the whole corpus, dense."""
    if isinstance(assignment, ClusterAssignment):
        assignment = assignment.assignment
    assert global_docs.shape[1] == corpus.num_words
    return corpus.dense() + eta * np.asarray(global_docs, dtype=np.float64)[assignment]


def dense_target_reconstruction(x, context, inv, theta_gd, beta, compute_grads=True):
    """``glocom.model.reconstruction`` computed on a dense B x V target:
    logsumexp log-probabilities, -sum(x_aug * logp) and the dense dlogits."""
    x_aug = (x.toarray() if sp.issparse(x) else x) + context[inv]
    B = x_aug.shape[0]
    logits = theta_gd @ beta.T
    logp = logits - logsumexp(logits, axis=1, keepdims=True)
    recon = -np.sum(x_aug * logp, axis=1)
    if not compute_grads:
        return recon, None, None
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
