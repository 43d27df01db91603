"""The transport-plan inner loop: alternating marginal scaling.

Iterates in the scaling domain, two matrix-vector products per iteration
on a Gibbs kernel built once per solve (Cuturi 2013). When a scaling leaves
the range where its products stay accurate, it is absorbed into log-domain
potentials and the kernel is rebuilt from them (Schmitzer 2019), so steep
costs that underflow a plain kernel still solve.

The iterations run in blocks: each block's half-updates write into
preallocated buffers, one row per iteration, and the range and stop tests
then read the whole block at once. The first event in iteration order
decides, and the iterations computed after it are dropped, so the result
is the one the tests would give if made after every iteration.
"""

from typing import NamedTuple

import numpy as np
from scipy.special import logsumexp

BACKEND = "numpy"

# scalings outside [1/_SAFE, _SAFE] are absorbed into the potentials; the
# product of two in-range scalings stays far inside the float64 range
_SAFE = 1e50
# iterations run between two evaluations of the range and stop tests
_BLOCK = 10


class Scaling(NamedTuple):
    """The plan is ``u[:, None] * kernel * v[None, :]``."""

    u: np.ndarray  # (V,) row scaling; +inf everywhere when the kernel collapsed
    v: np.ndarray  # (K,) column scaling
    iterations_used: int
    converged: bool
    kernel: np.ndarray  # (V, K) exp(Mr + f[:, None] + g[None, :])
    row_err: float  # L1 row and column marginal errors of the last stop test
    col_err: float


def _in_range(S: np.ndarray) -> np.ndarray:
    # per row; written so that nan also counts as out of range
    return (S.max(axis=1) < _SAFE) & (S.min(axis=1) > 1.0 / _SAFE)


def _l1_err(s: np.ndarray, prod: np.ndarray, marginal: float) -> np.ndarray:
    """Per row, the L1 distance of s * prod from the uniform marginal."""
    e = s * prod
    e -= marginal
    np.abs(e, out=e)
    return e.sum(axis=-1)


def sinkhorn_log(Mr: np.ndarray, max_iters: int, tol: float) -> Scaling:
    """Scale exp(Mr), (V, K), to the uniform marginals: rows 1/V, columns 1/K.

    Each iteration updates the row scaling, then the column scaling, then
    stops once the L1 row and column marginal errors are both below tol.
    Kernel collapse (a row or column of exp(Mr) with no finite entry)
    returns a non-finite ``u`` for the caller to report.
    """
    V, K = Mr.shape
    a, b = 1.0 / V, 1.0 / K
    u, v = np.ones(V), np.ones(K)
    iters_used = 0
    converged = False
    row_err = col_err = np.inf
    # row j of a block: u, K^T u and v of its iteration; KV row j + 1 holds
    # K v, the next iteration's product, and row 0 the block's first
    n = min(_BLOCK, max_iters)
    U, KV = np.empty((n, V)), np.empty((n + 1, V))
    KTU, VS = np.empty((n, K)), np.empty((n, K))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # absorbed log potentials: the row max keeps every kernel row's
        # largest entry at 1
        f = -Mr.max(axis=1)
        if not np.all(np.isfinite(f)):
            return Scaling(np.full(V, np.inf), v, 1, False, np.zeros((V, K)),
                           row_err, col_err)
        kernel = np.exp(Mr + f[:, None])
        kernel.sum(axis=1, out=KV[0])
        while iters_used < max_iters:
            n = min(_BLOCK, max_iters - iters_used)
            kernel_T = kernel.T
            for kv, u_j, ktu, v_j, kv_next in zip(KV[:n], U, KTU, VS, KV[1:n + 1]):
                # u needs no guard of its own: every kernel row keeps an
                # entry of its plan row's order, so K v neither vanishes
                # nor overflows while v is in range
                np.divide(a, kv, out=u_j)
                np.dot(kernel_T, u_j, out=ktu)
                np.divide(b, ktu, out=v_j)
                # row sums of the plan; also the next row update's product
                np.dot(kernel, v_j, out=kv_next)
            # iterations before the first out-of-range one stand; of those,
            # the first whose errors pass the stop test ends the solve
            out = np.flatnonzero(~(_in_range(U[:n]) & _in_range(VS[:n])))
            m = int(out[0]) if out.size else n
            rows = _l1_err(U[:m], KV[1:m + 1], a)
            cols = _l1_err(VS[:m], KTU[:m], b)
            stop = np.flatnonzero((rows < tol) & (cols < tol))
            last = int(stop[0]) if stop.size else m - 1
            if last >= 0:
                row_err, col_err = rows[last], cols[last]
                u, v = U[last].copy(), VS[last].copy()
            if stop.size:
                iters_used += last + 1
                converged = True
                break
            if m == n:
                iters_used += n
                KV[0] = KV[n]
                continue
            # iteration m left the range: redo its column update in the log
            # domain, from the potentials with its u absorbed
            iters_used += m + 1
            f += np.log(U[m])
            g = np.log(b) - logsumexp(Mr + f[:, None], axis=0)
            if not np.all(np.isfinite(g)):
                u, v = np.full(V, np.inf), VS[m].copy()
                break
            kernel = np.exp(Mr + f[:, None] + g[None, :])
            u, v = np.ones(V), np.ones(K)
            KTu = kernel.sum(axis=0)
            np.dot(kernel, v, out=KV[0])
            row_err, col_err = _l1_err(u, KV[0], a), _l1_err(v, KTu, b)
            if row_err < tol and col_err < tol:
                converged = True
                break
    return Scaling(u, v, iters_used, converged, kernel, float(row_err), float(col_err))
