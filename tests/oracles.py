"""Dense reference formulas the sparse code paths are checked against.

The model never builds the augmented targets x + eta * x^g as an array;
these helpers do, the direct way, so tests can compare the two.
"""

import contextlib

import numpy as np
import scipy.sparse as sp
from scipy.special import logsumexp

import glocom.model
from glocom.aggregation import ClusterAssignment


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
