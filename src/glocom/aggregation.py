"""Document clustering and global context documents.

Each document gets a cluster g; the cluster's concatenated bag-of-words x^g
acts as shared context, and reconstruction targets become x + eta * x^g.
"""

import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .corpus import BowCorpus, EmbeddingMatrix, divide_rows, read_label_file, row_sq_norms
from .ecr import squared_distances
from .errors import ClusteringError
from .rng import substream

# Lloyd's iterations stop after KMEANS_MAX_ITERS, or sooner once the
# largest centroid move falls below KMEANS_TOL.
KMEANS_MAX_ITERS = 100
KMEANS_TOL = 1e-6


@dataclass
class ClusterAssignment:
    assignment: np.ndarray  # (D,) int, values in 0..G-1
    G: int
    centroids: np.ndarray  # (G, E)
    inertia: float
    inertia_history: list[float] = field(default_factory=list)

    def __post_init__(self):
        self.assignment = np.asarray(self.assignment, dtype=np.int64)
        if self.assignment.size and (
            self.assignment.min() < 0 or self.assignment.max() >= self.G
        ):
            raise ClusteringError("cluster id out of range")
        if self.inertia < 0:
            raise ClusteringError("negative inertia")

    def counts(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.G)


def _row(X, i: int) -> np.ndarray:
    """Row i of a dense array or a CSR matrix, as a dense vector."""
    return X[i].toarray().ravel() if sp.issparse(X) else X[i]


def _indicator(labels: np.ndarray, G: int, dtype) -> sp.csr_matrix:
    """G x N one-hot membership matrix: row g marks the members of g in
    index order, so ``_indicator(...) @ X`` sums each cluster's rows."""
    counts = np.bincount(labels, minlength=G)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    members = np.argsort(labels, kind="stable")
    return sp.csr_matrix(
        (np.ones(labels.shape[0], dtype=dtype), members, indptr),
        shape=(G, labels.shape[0]),
    )


def _cluster_sums(X: sp.csr_matrix, entry_row: np.ndarray, assign: np.ndarray,
                  G: int) -> np.ndarray:
    """Each cluster's sum of the rows of CSR X, (G, E) dense; ``entry_row``
    is the row of each stored entry. bincount adds the entries of a
    (cluster, column) key in row order, as ``_indicator(assign, G) @ X``
    does, so the sums are the same to the bit."""
    E = X.shape[1]
    keys = assign[entry_row] * E + X.indices
    sums = np.bincount(keys, weights=X.data, minlength=G * E)
    return sums.astype(np.float64, copy=False).reshape(G, E)  # int64 when X has no entries


def _kmeanspp_seed(X, xsq: np.ndarray, G: int, rng: np.random.Generator) -> np.ndarray:
    N = X.shape[0]
    centroids = np.empty((G, X.shape[1]), dtype=np.float64)
    first = int(rng.integers(N))
    centroids[0] = _row(X, first)
    closest = squared_distances(X, centroids[:1], xsq).ravel()
    for j in range(1, G):
        total = closest.sum()
        if total <= 0.0:
            idx = int(rng.integers(N))  # all points coincide with a centroid
        else:
            idx = int(rng.choice(N, p=closest / total))
        centroids[j] = _row(X, idx)
        np.minimum(closest, squared_distances(X, centroids[j : j + 1], xsq).ravel(), out=closest)
    return centroids


def kmeans(
    embeddings: EmbeddingMatrix,
    G: int,
    seed: int = 0,
    init_centroids: Optional[np.ndarray] = None,
    normalize: bool = False,
) -> ClusterAssignment:
    """Lloyd's algorithm with k-means++ seeding on Euclidean distance.

    Deterministic given the seed. Empty clusters are re-seeded to the point
    currently farthest from its assigned centroid. ``init_centroids``
    bypasses seeding (used for reproducibility across row permutations).
    CSR rows stay sparse: only rows that become centroids are densified.
    """
    X = embeddings.rows
    N = X.shape[0]
    if N == 0:
        raise ClusteringError("cannot cluster an empty embedding matrix")
    if G < 1 or G > N:
        raise ClusteringError(f"need 1 <= G <= {N} documents, got G={G}")
    xsq = row_sq_norms(X)
    if normalize:
        norms = np.sqrt(xsq)
        X = divide_rows(X, np.where(norms > 0, norms, 1.0))
        xsq = row_sq_norms(X)

    rng = substream(seed, "clustering")
    if init_centroids is not None:
        C = np.array(init_centroids, dtype=np.float64, copy=True)
        if C.shape != (G, X.shape[1]):
            raise ClusteringError(
                f"init_centroids shape {C.shape} != ({G}, {X.shape[1]})"
            )
    else:
        C = _kmeanspp_seed(X, xsq, G, rng)

    if sp.issparse(X):
        entry_row = np.repeat(np.arange(N), np.diff(X.indptr))
    history: list[float] = []
    assign = np.zeros(N, dtype=np.int64)
    for _ in range(KMEANS_MAX_ITERS):
        d2 = squared_distances(X, C, xsq)
        assign = np.argmin(d2, axis=1)
        history.append(float(d2[np.arange(N), assign].sum()))
        if sp.issparse(X):
            newC = _cluster_sums(X, entry_row, assign, G)
        else:
            newC = _indicator(assign, G, np.float64) @ X
        counts = np.bincount(assign, minlength=G).astype(np.float64)
        nonempty = counts > 0
        newC[nonempty] /= counts[nonempty, None]
        for g in np.flatnonzero(~nonempty):
            # farthest point from its assigned centroid claims the slot
            cur = d2[np.arange(N), assign]
            far = int(np.argmax(cur))
            newC[g] = _row(X, far)
            assign[far] = g
            d2[far, :] = np.inf
            d2[far, g] = 0.0
        shift = float(np.sqrt(np.sum((newC - C) ** 2, axis=1)).max())
        C = newC
        if shift < KMEANS_TOL:
            break
    d2 = squared_distances(X, C, xsq)
    assign = np.argmin(d2, axis=1)
    inertia = float(d2[np.arange(N), assign].sum())
    history.append(inertia)
    return ClusterAssignment(assign, G, C, inertia, history)


def build_global_docs(corpus: BowCorpus, assignment: np.ndarray, G: int) -> sp.csr_matrix:
    """Each cluster's summed member counts, a float64 CSR (G, V) matrix;
    ``assignment`` holds one id in [0, G) per document."""
    return _indicator(assignment, G, np.float64) @ corpus.counts


@dataclass
class GlobalCorpus:
    """The clustering context of one corpus: each document's cluster id
    and each cluster's global document x^g. The model's targets are
    x + eta * x^g (see ``model.reconstruction``)."""

    assignment: np.ndarray  # (D,) int64 ids in [0, G)
    global_docs: sp.csr_matrix  # (G, V) float64 summed counts


def build_global_corpus(
    corpus: BowCorpus, assignment, G: Optional[int] = None
) -> GlobalCorpus:
    """The one check of an assignment against a corpus: one id per
    document, each in [0, G); G defaults to the largest id + 1. A cluster
    with no documents gets an empty global document and a warning."""
    ids = np.asarray(assignment)
    D = corpus.num_docs
    if D == 0 or ids.shape != (D,):
        raise ClusteringError(f"assignment of shape {ids.shape} for a corpus of {D} documents")
    ids = ids.astype(np.int64, copy=False)
    G = int(ids.max()) + 1 if G is None else G
    if ids.min() < 0 or ids.max() >= G:
        raise ClusteringError(f"assignment ids outside [0, {G})")
    empty = np.flatnonzero(np.bincount(ids, minlength=G) == 0)
    if empty.size:
        warnings.warn(f"clusters with no documents: {empty.tolist()}", stacklevel=2)
    return GlobalCorpus(ids, build_global_docs(corpus, ids, G))


def read_assignment(path: str, G: Optional[int] = None) -> np.ndarray:
    """Cluster ids, one per line, as ``write_label_file`` writes them; an id
    below 0, or not below G when G is given, raises naming its line."""
    ids = read_label_file(path, ClusteringError)
    if ids.size == 0:
        raise ClusteringError(f"assignment file is empty: {path}")
    bad = np.flatnonzero((ids < 0) | (ids >= (np.inf if G is None else G)))
    if bad.size:
        with open(path, encoding="utf-8") as fh:
            ln = [n for n, line in enumerate(fh, 1) if line.strip()][bad[0]]
        bound = "" if G is None else f" for G={G}"
        raise ClusteringError(f"{path}:{ln}: cluster id {ids[bad[0]]} out of range{bound}")
    return ids
