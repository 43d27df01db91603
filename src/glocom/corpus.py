"""Corpus ingestion: vocabulary, bag-of-words, TF-IDF, embedding files.

Input corpora are pre-tokenized (one document per line, whitespace-separated,
already lowercased); no stemming or stopword logic lives here.
"""

import contextlib
import itertools
import os
import struct
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

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


def preprocess(
    raw_docs: Sequence[Sequence[str]],
    min_freq: int = 3,
    min_terms: int = 2,
    labels: Optional[Sequence[int]] = None,
) -> tuple[BowCorpus, list[int]]:
    """Vocabulary pruning and document filtering, iterated to a fixpoint.

    Each pass keeps the words with corpus frequency >= min_freq, in the
    order of their first occurrence among the kept documents' tokens, then
    the documents with at least min_terms distinct kept words. Dropping
    short documents can push some word frequencies back below min_freq, so
    the passes repeat until the kept corpus is stable. Returns the corpus
    plus the kept-index list so labels and precomputed embeddings can be
    filtered consistently.
    """
    words, ids, doc = _token_ids(raw_docs)
    kept = np.arange(len(raw_docs))
    while True:
        vocab_ids = _frequent(ids, len(words), kept.size, min_freq)
        column = np.full(len(words), -1, dtype=np.int64)
        column[vocab_ids] = np.arange(vocab_ids.size)
        counts, sub = _count_matrix(doc, column[ids], kept.size, vocab_ids.size, min_terms)
        kept_labels = _kept_labels(labels, len(raw_docs), kept[sub])
        if sub.size == kept.size:
            vocab = Vocabulary([words[i] for i in vocab_ids])
            return BowCorpus(counts, vocab, kept_labels), kept.tolist()
        stays = np.zeros(kept.size, dtype=bool)
        stays[sub] = True
        on = stays[doc]
        ids, doc = ids[on], (np.cumsum(stays) - 1)[doc[on]]
        kept = kept[sub]


def _token_ids(raw_docs: Sequence[Sequence[str]]) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The distinct tokens in first-occurrence order, then each token's id
    among them and the index of its document."""
    tokens = list(itertools.chain.from_iterable(raw_docs))
    words = list(dict.fromkeys(tokens))
    index = dict(zip(words, range(len(words))))
    ids = np.fromiter(map(index.__getitem__, tokens), np.int64, len(tokens))
    lengths = np.fromiter(map(len, raw_docs), np.int64, len(raw_docs))
    return words, ids, np.repeat(np.arange(len(raw_docs)), lengths)


def _frequent(ids: np.ndarray, num_ids: int, num_docs: int, min_freq: int) -> np.ndarray:
    """The ids that occur at least min_freq times, in first-occurrence order."""
    if min_freq < 1:
        raise CorpusError(f"min_freq must be >= 1, got {min_freq}")
    if num_docs == 0:
        raise CorpusError("cannot build a vocabulary from an empty corpus")
    first = np.full(num_ids, ids.size)
    np.minimum.at(first, ids, np.arange(ids.size))
    frequent = np.flatnonzero(np.bincount(ids, minlength=num_ids) >= min_freq)
    if not frequent.size:
        raise CorpusError(f"vocabulary is empty after min_freq={min_freq} filtering")
    return frequent[np.argsort(first[frequent])]


def _count_matrix(doc: np.ndarray, word: np.ndarray, num_docs: int, num_words: int,
                  min_terms: int) -> tuple[sp.csr_matrix, np.ndarray]:
    """The counts of the tokens with a word id (-1 for none) in the
    documents with at least min_terms distinct words, and their indices."""
    if min_terms < 1:
        raise CorpusError(f"min_terms must be >= 1, got {min_terms}")
    known = word >= 0
    keys, data = np.unique(doc[known] * num_words + word[known], return_counts=True)
    rows, cols = np.divmod(keys, num_words)
    terms = np.bincount(rows, minlength=num_docs)
    kept = np.flatnonzero(terms >= min_terms)
    if not kept.size:
        raise CorpusError(f"all documents dropped at min_terms={min_terms}")
    on = terms[rows] >= min_terms
    indptr = np.concatenate(([0], np.cumsum(terms[kept])))
    return sp.csr_matrix((data[on], cols[on], indptr), shape=(kept.size, num_words)), kept


def _kept_labels(labels: Optional[Sequence[int]], num_raw: int, kept: np.ndarray):
    if labels is None:
        return None
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape[0] != num_raw:
        raise CorpusError(f"{labels.shape[0]} labels for {num_raw} raw documents")
    return labels[kept]


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


@contextlib.contextmanager
def open_text(path: str, error: type):
    """``path`` as UTF-8 text; bytes that do not decode raise ``error`` naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason})") from None


def read_corpus_file(path: str) -> list[list[str]]:
    """One document per line, whitespace-separated tokens. Blank lines are
    empty documents (they will be dropped by any min_terms >= 1 filter)."""
    docs = []
    with open_text(path, CorpusError) as fh:
        for line in fh:
            docs.append(line.split())
    if not docs:
        raise CorpusError(f"corpus file is empty: {path}")
    return docs


def write_label_file(values: Sequence[int], path: str) -> None:
    """One integer per line: labels, cluster assignments, kept indices."""
    v = np.asarray(values, dtype=np.int64)
    _write_rows(path, "", v.size, 1, lambda lo, hi: v[lo:hi, None], _format_int_block)


def read_label_file(path: str, error: type = CorpusError) -> np.ndarray:
    """The integers of a ``write_label_file`` file, blank lines skipped; a
    line that is not an integer, or not one that fits in int64, raises
    ``error`` naming the file and line."""
    values = []
    with open_text(path, error) as fh:
        for ln, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                values.append(int(line))
            except ValueError:
                raise error(f"{path}:{ln}: not an integer: {line!r}")
        try:
            return np.asarray(values, dtype=np.int64)
        except OverflowError:
            # only a failed conversion reads the file again, for its first bad line
            fh.seek(0)
            lo, hi = np.iinfo(np.int64).min, np.iinfo(np.int64).max
            for ln, line in enumerate(fh, 1):
                if line.strip() and not lo <= int(line) <= hi:
                    raise error(f"{path}:{ln}: integer out of range: {line.strip()!r}") from None
            raise


def write_vocabulary(vocab: Vocabulary, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for w in vocab.words:
            fh.write(w + "\n")


def read_vocabulary(path: str) -> Vocabulary:
    with open_text(path, CorpusError) as fh:
        words = [line.rstrip("\n") for line in fh if line.strip()]
    if not words:
        raise CorpusError(f"vocabulary file is empty: {path}")
    return Vocabulary(words)


def write_bow(corpus: BowCorpus, path: str) -> None:
    """Header "D V NNZ", then one "doc word count" triple per line, ordered
    by document, then word (the order of the canonical CSR counts)."""
    X = corpus.counts

    def triples(lo: int, hi: int) -> np.ndarray:
        doc = np.searchsorted(X.indptr, np.arange(lo, hi), side="right") - 1
        return np.column_stack((doc, X.indices[lo:hi], X.data[lo:hi]))

    header = f"{corpus.num_docs} {corpus.num_words} {X.nnz}\n"
    _write_rows(path, header, X.nnz, 3, triples, _format_int_block)


_BLOCK = 1 << 14  # values per formatted block
_POW10_U64 = np.array([10**k for k in range(1, 20)], dtype=np.uint64)
_n4 = np.arange(10000)
# "0000".."9999" as one uint32 each, so a gather moves four characters
_DIGITS4 = (
    np.stack([_n4 // 1000, _n4 // 100 % 10, _n4 // 10 % 10, _n4 % 10], axis=1) + ord("0")
).astype(np.uint8).view(np.uint32).reshape(-1)
del _n4


def _write_rows(path: str, header: str, num_rows: int, num_cols: int,
                rows: Callable[[int, int], np.ndarray],
                format_block: Callable[[np.ndarray], bytes | np.ndarray]) -> None:
    """Write ``header``, then rows 0..num_rows-1 as ``format_block`` renders
    them. ``rows(lo, hi)`` gives rows lo..hi-1 as a (hi-lo, num_cols) array;
    it is asked for one block of about ``_BLOCK`` values at a time, so
    memory does not grow with the row count."""
    step = max(1, _BLOCK // max(num_cols, 1))
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        for lo in range(0, num_rows, step):
            fh.write(format_block(rows(lo, min(lo + step, num_rows))))


def _format_int_block(M: np.ndarray) -> bytes:
    """The lines of the rows of M: space-separated integers in decimal, as
    ``f"{v}"`` writes them."""
    ncols = M.shape[1]
    v = np.asarray(M, dtype=np.int64).reshape(-1)
    u = np.abs(v).view(np.uint64)  # |int64 min| too
    width = len(str(int(u.max())))
    ndigits = np.ones(v.size, np.intp)
    for p in _POW10_U64[:width - 1]:
        ndigits += u >= p
    groups = -(-width // 4)
    # four digits to a uint32, most significant group first
    digits = np.empty((v.size, groups), np.uint32)
    for j in range(groups - 1, 0, -1):
        u, low = np.divmod(u, np.uint64(10000))
        digits[:, j] = np.take(_DIGITS4, low)
    digits[:, 0] = np.take(_DIGITS4, u)
    # column 0 is the minus sign, then the digits right-aligned, then the separator
    W = 4 * groups
    out = np.empty((v.size, W + 2), np.uint8)
    out[:, 0] = ord("-")
    out[:, 1:-1] = digits.view(np.uint8)
    out[:, -1] = ord(" ")
    out[ncols - 1::ncols, -1] = ord("\n")
    cols = np.arange(W + 2)
    # row d of the table keeps the last d digits and the separator
    keep = np.take(cols >= W + 1 - cols[:, None], ndigits, axis=0)
    keep[:, 0] = v < 0
    return out[keep].tobytes()


def read_bow(path: str, vocab: Vocabulary) -> BowCorpus:
    with open_text(path, CorpusError) as fh:
        header = fh.readline().split()
        if len(header) != 3 or not all(x.isdecimal() for x in header):
            raise CorpusError(f"{path}: expected 'D V NNZ' header of non-negative "
                              f"integers, got {header}")
        D, V, nnz = (int(x) for x in header)
        if V != len(vocab):
            raise CorpusError(f"{path}: file has V={V}, vocabulary has {len(vocab)} words")
        lines = list(itertools.islice(fh, nnz))
        for lineno, extra in enumerate(fh, start=nnz + 2):
            if extra.strip():
                raise CorpusError(f"{path}:{lineno}: entry beyond the header's NNZ={nnz}")
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
    bad = np.flatnonzero(vals < 1)
    if bad.size:  # entry i is on line i + 2, after the header
        raise CorpusError(f"{path}:{bad[0] + 2}: count {vals[bad[0]]} is not positive")
    if nnz and (min(rows.min(), cols.min()) < 0 or rows.max() >= D or cols.max() >= V):
        raise CorpusError(f"{path}: entry index outside the {D} x {V} matrix")
    counts = sp.csr_matrix((vals, (rows, cols)), shape=(D, V))
    return BowCorpus(counts, vocab)


def write_gemb(M: np.ndarray, path: str) -> None:
    """The GEMB layout: magic "GEMB", u64-LE rows, u64-LE cols, then M's
    own row-major bytes; M's dtype is the payload's."""
    with open(path, "wb") as fh:
        fh.write(_GEMB_MAGIC)
        fh.write(struct.pack("<QQ", M.shape[0], M.shape[1]))
        fh.write(np.ascontiguousarray(M).data)  # M's buffer, or one C-order copy


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
        expected = rows * cols * np.dtype(dtype).itemsize
        found = os.fstat(fh.fileno()).st_size - fh.tell()
        if found != expected:
            raise error(f"{path}: expected {expected} payload bytes, found {found}")
        # read straight into a writable array: no bytes object to copy from
        return np.fromfile(fh, dtype=dtype, count=rows * cols).reshape(rows, cols)


def read_matrix_csv(path: str, error: type) -> np.ndarray:
    """The comma-separated rows of finite numbers that ``write_matrix_csv``
    writes, blank lines skipped; a bad file raises ``error`` naming it, and
    a ragged or unparseable row names its line too."""
    with open_text(path, error) as fh:
        rows = (line for line in fh if line.strip())
        first = next(rows, None)
        if first is None:
            raise error(f"{path}: no rows")
        try:
            M = np.loadtxt(itertools.chain([first], rows), delimiter=",", ndmin=2,
                           comments=None)
        except ValueError as exc:
            # only a failed read reads the file again, for its first bad row
            fh.seek(0)
            width = first.count(",") + 1
            numbered = ((ln, line) for ln, line in enumerate(fh, 1) if line.strip())
            for ln, line in numbered:
                n = line.count(",") + 1
                if n != width:
                    raise error(f"{path}:{ln}: row has {n} values, expected {width}") from None
                try:
                    np.loadtxt([line], delimiter=",", comments=None)
                except ValueError:
                    raise error(f"{path}:{ln}: unparseable CSV row") from None
            raise error(f"{path}: not a numeric CSV matrix: {exc}") from None
    if not np.all(np.isfinite(M)):
        raise error(f"{path}: contains non-finite values")
    return M


def load_embeddings(path: str, expected_rows: int) -> EmbeddingMatrix:
    """A dense matrix in the GEMB layout (found by its magic) or as CSV rows."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == _GEMB_MAGIC:
        M = read_gemb(path, "<f4").astype(np.float64)
    else:
        M = read_matrix_csv(path, EmbeddingError)
    if M.shape[0] != expected_rows:
        raise EmbeddingError(f"{path}: has {M.shape[0]} rows, expected {expected_rows}")
    if not np.all(np.isfinite(M)):
        raise EmbeddingError(f"{path}: contains non-finite values")
    return EmbeddingMatrix(M)


def load_word_embeddings(path: str, vocab: Vocabulary, seed: int = 0) -> WordEmbeddingInit:
    """Read a "token v1 ... vL" text file aligned to the vocabulary.

    Out-of-file words are filled uniformly from [-0.05, 0.05] per coordinate
    using the run seed, so initialization is deterministic. The values of
    an in-vocabulary word must be finite numbers; a line for a word outside
    the vocabulary is checked for its width only.
    """
    found: dict[str, np.ndarray] = {}
    dim = None
    with open_text(path, EmbeddingError) as fh:
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
                    vec = np.asarray([float(x) for x in vals], dtype=np.float64)
                except ValueError:
                    raise EmbeddingError(f"{path}:{ln}: unparseable value for {tok!r}")
                if not np.all(np.isfinite(vec)):
                    raise EmbeddingError(f"{path}:{ln}: non-finite value for {tok!r}")
                found[tok] = vec
    if dim is None:
        raise EmbeddingError(f"{path}: no embedding lines")
    V = len(vocab)
    rng = substream(seed, "init.word-embeddings")
    vectors = rng.uniform(-0.05, 0.05, size=(V, dim))
    for tok, vec in found.items():
        vectors[vocab.index[tok]] = vec
    return WordEmbeddingInit(vectors, coverage=len(found) / V)
