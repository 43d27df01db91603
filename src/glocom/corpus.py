"""Corpus ingestion: vocabulary, bag-of-words, TF-IDF, embedding files.

Input corpora are pre-tokenized (one document per line, whitespace-separated,
already lowercased); no stemming or stopword logic lives here.
"""

import itertools
import struct
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import CorpusError, EmbeddingError
from .rng import substream

_GEMB_MAGIC = b"GEMB"


@dataclass
class Vocabulary:
    words: list[str]
    index: dict[str, int] = field(init=False)

    def __post_init__(self):
        self.index = {}
        for i, w in enumerate(self.words):
            if not w:
                raise CorpusError("empty token in vocabulary")
            if w in self.index:
                raise CorpusError(f"duplicate token in vocabulary: {w!r}")
            self.index[w] = i

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, token: str) -> bool:
        return token in self.index


@dataclass
class BowCorpus:
    """Sparse document-term count matrix with optional gold labels."""

    counts: sp.csr_matrix  # D x V, non-negative integers
    vocab: Vocabulary
    labels: Optional[np.ndarray] = None

    def __post_init__(self):
        self.counts = sp.csr_matrix(self.counts)
        self.counts.sum_duplicates()
        self.counts.eliminate_zeros()
        if self.counts.shape[1] != len(self.vocab):
            raise CorpusError(
                f"count matrix has {self.counts.shape[1]} columns for a "
                f"{len(self.vocab)}-word vocabulary"
            )
        if self.counts.nnz and self.counts.data.min() <= 0:
            raise CorpusError("count matrix contains non-positive stored entries")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape[0] != self.counts.shape[0]:
                raise CorpusError(
                    f"{self.labels.shape[0]} labels for {self.counts.shape[0]} documents"
                )

    @property
    def num_docs(self) -> int:
        return self.counts.shape[0]

    @property
    def num_words(self) -> int:
        return self.counts.shape[1]

    def dense(self) -> np.ndarray:
        return np.asarray(self.counts.todense(), dtype=np.float64)


@dataclass
class EmbeddingMatrix:
    rows: np.ndarray  # N x E, finite; CSR for TF-IDF, dense otherwise

    def __post_init__(self):
        if sp.issparse(self.rows):
            self.rows = sp.csr_matrix(self.rows, dtype=np.float64)
            values = self.rows.data
        else:
            self.rows = values = np.asarray(self.rows, dtype=np.float64)
        if self.rows.ndim != 2 or self.rows.shape[1] < 1:
            raise EmbeddingError(f"embedding matrix must be 2-D, got shape {self.rows.shape}")
        if not np.all(np.isfinite(values)):
            raise EmbeddingError("embedding matrix contains non-finite values")


def row_sq_norms(X) -> np.ndarray:
    """Squared L2 norm of each row of a dense array or a CSR matrix."""
    if sp.issparse(X):
        return np.asarray(X.multiply(X).sum(axis=1), dtype=np.float64).ravel()
    return np.einsum("ij,ij->i", X, X)


def divide_rows(X, d: np.ndarray):
    """A copy of X with row i divided by d[i]; CSR stays CSR."""
    if sp.issparse(X):
        X = X.copy()
        X.data /= np.repeat(d, np.diff(X.indptr))
        return X
    return X / d[:, None]


@dataclass
class WordEmbeddingInit:
    vectors: np.ndarray  # V x L
    coverage: float  # fraction of vocabulary found in the init file


def build_vocabulary(raw_docs: Sequence[Sequence[str]], min_freq: int) -> Vocabulary:
    """Keep tokens with corpus frequency >= min_freq, in first-occurrence order."""
    if min_freq < 1:
        raise CorpusError(f"min_freq must be >= 1, got {min_freq}")
    if not raw_docs:
        raise CorpusError("cannot build a vocabulary from an empty corpus")
    freq: Counter[str] = Counter()
    order: list[str] = []
    seen: set[str] = set()
    for doc in raw_docs:
        for tok in doc:
            freq[tok] += 1
            if tok not in seen:
                seen.add(tok)
                order.append(tok)
    kept = [w for w in order if freq[w] >= min_freq]
    if not kept:
        raise CorpusError(f"vocabulary is empty after min_freq={min_freq} filtering")
    return Vocabulary(kept)


def build_bow(
    raw_docs: Sequence[Sequence[str]],
    vocab: Vocabulary,
    min_terms: int,
    labels: Optional[Sequence[int]] = None,
) -> tuple[BowCorpus, list[int]]:
    """Count in-vocabulary tokens per document.

    Documents with fewer than ``min_terms`` distinct in-vocabulary terms are
    dropped. Returns the corpus plus the kept-index list so labels and
    precomputed embeddings can be filtered consistently.
    """
    if min_terms < 1:
        raise CorpusError(f"min_terms must be >= 1, got {min_terms}")
    indptr = [0]
    indices: list[int] = []
    data: list[int] = []
    kept: list[int] = []
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


def preprocess(
    raw_docs: Sequence[Sequence[str]],
    min_freq: int = 3,
    min_terms: int = 2,
    labels: Optional[Sequence[int]] = None,
) -> tuple[BowCorpus, list[int]]:
    """Vocabulary pruning and document filtering, iterated to a fixpoint.

    Dropping short documents can push some word frequencies back below
    min_freq, so the two filters are alternated until the kept corpus is
    stable.
    """
    kept = list(range(len(raw_docs)))
    docs = [list(d) for d in raw_docs]
    cur_labels = None if labels is None else np.asarray(labels, dtype=np.int64)
    while True:
        vocab = build_vocabulary(docs, min_freq)
        bow, sub = build_bow(docs, vocab, min_terms, cur_labels)
        if len(sub) == len(docs):
            return bow, kept
        kept = [kept[i] for i in sub]
        docs = [docs[i] for i in sub]
        if cur_labels is not None:
            cur_labels = cur_labels[sub]


def tfidf(corpus: BowCorpus) -> EmbeddingMatrix:
    """Raw-count TF times log(D/df), rows L2-normalized (zero rows stay zero).

    The rows are CSR with the corpus's sparsity: only stored counts are
    scaled, and words in every document (idf 0) are dropped."""
    D = corpus.num_docs
    if D == 0:
        raise CorpusError("cannot compute TF-IDF of an empty corpus")
    X = corpus.counts.astype(np.float64)
    df = np.bincount(X.indices, minlength=X.shape[1]).astype(np.float64)
    idf = np.zeros_like(df)
    present = df > 0
    idf[present] = np.log(D / df[present])
    X.data *= idf[X.indices]
    X.eliminate_zeros()
    norms = np.sqrt(row_sq_norms(X))
    return EmbeddingMatrix(divide_rows(X, np.where(norms > 0, norms, 1.0)))


# ---------------------------------------------------------------------------
# file formats


def read_corpus_file(path: str) -> list[list[str]]:
    """One document per line, whitespace-separated tokens. Blank lines are
    empty documents (they will be dropped by any min_terms >= 1 filter)."""
    docs = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            docs.append(line.split())
    if not docs:
        raise CorpusError(f"corpus file is empty: {path}")
    return docs


def write_label_file(values: Sequence[int], path: str) -> None:
    """One integer per line: labels, cluster assignments, kept indices."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{int(v)}\n" for v in values))


def read_label_file(path: str, error: type = CorpusError) -> np.ndarray:
    """The integers of a ``write_label_file`` file, blank lines skipped; a
    line that is not an integer raises ``error`` naming the file and line."""
    values = []
    with open(path, encoding="utf-8") as fh:
        for ln, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                values.append(int(line))
            except ValueError:
                raise error(f"{path}:{ln}: not an integer: {line!r}")
    return np.asarray(values, dtype=np.int64)


def write_vocabulary(vocab: Vocabulary, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for w in vocab.words:
            fh.write(w + "\n")


def read_vocabulary(path: str) -> Vocabulary:
    with open(path, encoding="utf-8") as fh:
        words = [line.rstrip("\n") for line in fh if line.strip()]
    if not words:
        raise CorpusError(f"vocabulary file is empty: {path}")
    return Vocabulary(words)


def write_bow(corpus: BowCorpus, path: str) -> None:
    """Header "D V NNZ", then one "doc word count" triple per line, ordered
    by document, then word."""
    coo = corpus.counts.tocoo()
    order = np.lexsort((coo.col, coo.row))
    entries = zip(coo.row[order].tolist(), coo.col[order].tolist(), coo.data[order].tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{corpus.num_docs} {corpus.num_words} {coo.nnz}\n")
        fh.write("".join(f"{d} {w} {c}\n" for d, w, c in entries))


def read_bow(path: str, vocab: Vocabulary, labels: Optional[np.ndarray] = None) -> BowCorpus:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 3:
            raise CorpusError(f"{path}: expected 'D V NNZ' header, got {header}")
        D, V, nnz = (int(x) for x in header)
        if V != len(vocab):
            raise CorpusError(f"{path}: file has V={V}, vocabulary has {len(vocab)} words")
        lines = list(itertools.islice(fh, nnz))
    entries = np.zeros((0, 3), dtype=np.int64)
    if lines:
        try:
            entries = np.loadtxt(lines, dtype=np.int64, ndmin=2, comments=None)
        except ValueError as exc:
            raise CorpusError(f"{path}: malformed entry: {exc}") from exc
    if entries.shape[0] < nnz:
        raise CorpusError(f"{path}: truncated at entry {entries.shape[0]} of {nnz}")
    if entries.shape[1] != 3:
        raise CorpusError(f"{path}: entries have {entries.shape[1]} values, expected 3")
    rows, cols, vals = entries.T
    if nnz and (min(rows.min(), cols.min()) < 0 or rows.max() >= D or cols.max() >= V):
        raise CorpusError(f"{path}: entry index outside the {D} x {V} matrix")
    counts = sp.csr_matrix((vals, (rows, cols)), shape=(D, V))
    return BowCorpus(counts, vocab, labels)


def write_gemb(M: np.ndarray, path: str) -> None:
    """The GEMB layout: magic "GEMB", u64-LE rows, u64-LE cols, then M's
    own row-major bytes; M's dtype is the payload's."""
    with open(path, "wb") as fh:
        fh.write(_GEMB_MAGIC)
        fh.write(struct.pack("<QQ", M.shape[0], M.shape[1]))
        fh.write(np.ascontiguousarray(M).tobytes())


def read_gemb(path: str, dtype: str, error: type = EmbeddingError) -> np.ndarray:
    """A matrix in the GEMB layout with a ``dtype`` payload ("<f4" for
    document embeddings, "<f8" for checkpoints); a malformed file raises
    ``error`` naming the path."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _GEMB_MAGIC:
            raise error(f"{path}: bad magic bytes {magic!r}")
        header = fh.read(16)
        if len(header) != 16:
            raise error(f"{path}: truncated header")
        rows, cols = struct.unpack("<QQ", header)
        payload = fh.read()
    expected = rows * cols * np.dtype(dtype).itemsize
    if len(payload) != expected:
        raise error(f"{path}: expected {expected} payload bytes, found {len(payload)}")
    return np.frombuffer(payload, dtype=dtype).reshape(rows, cols)


def _load_embeddings_csv(path: str) -> np.ndarray:
    rows = []
    width = None
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:
        raise EmbeddingError(f"{path}: neither the binary format nor UTF-8 CSV")
    for ln, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            vals = [float(x) for x in line.split(",")]
        except ValueError:
            raise EmbeddingError(f"{path}:{ln}: unparseable CSV row")
        if width is None:
            width = len(vals)
        elif len(vals) != width:
            raise EmbeddingError(f"{path}:{ln}: row has {len(vals)} values, expected {width}")
        rows.append(vals)
    if not rows:
        raise EmbeddingError(f"{path}: no embedding rows")
    return np.asarray(rows, dtype=np.float64)


def load_embeddings(path: str, expected_rows: int) -> EmbeddingMatrix:
    """Load a dense matrix from the binary format (by magic) or CSV fallback."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == _GEMB_MAGIC:
        M = read_gemb(path, "<f4").astype(np.float64)
    else:
        M = _load_embeddings_csv(path)
    if M.shape[0] != expected_rows:
        raise EmbeddingError(f"{path}: has {M.shape[0]} rows, expected {expected_rows}")
    if not np.all(np.isfinite(M)):
        raise EmbeddingError(f"{path}: contains non-finite values")
    return EmbeddingMatrix(M)


def load_word_embeddings(path: str, vocab: Vocabulary, seed: int = 0) -> WordEmbeddingInit:
    """Read a "token v1 ... vL" text file aligned to the vocabulary.

    Out-of-file words are filled uniformly from [-0.05, 0.05] per coordinate
    using the run seed, so initialization is deterministic.
    """
    found: dict[str, np.ndarray] = {}
    dim = None
    with open(path, encoding="utf-8") as fh:
        for ln, line in enumerate(fh, 1):
            parts = line.rstrip("\n").split()
            if not parts:
                continue
            tok, vals = parts[0], parts[1:]
            if not vals:
                raise EmbeddingError(f"{path}:{ln}: no embedding values for {tok!r}")
            if dim is None:
                dim = len(vals)
            elif len(vals) != dim:
                raise EmbeddingError(
                    f"{path}:{ln}: dimension {len(vals)} differs from earlier {dim}"
                )
            if tok in vocab.index and tok not in found:
                try:
                    found[tok] = np.asarray([float(x) for x in vals], dtype=np.float64)
                except ValueError:
                    raise EmbeddingError(f"{path}:{ln}: unparseable value for {tok!r}")
    if dim is None:
        raise EmbeddingError(f"{path}: no embedding lines")
    V = len(vocab)
    rng = substream(seed, "init.word-embeddings")
    vectors = rng.uniform(-0.05, 0.05, size=(V, dim))
    for tok, vec in found.items():
        vectors[vocab.index[tok]] = vec
    return WordEmbeddingInit(vectors, coverage=len(found) / V)
