"""The transport-plan inner loop: alternating marginal scaling.

Iterates in the scaling domain, two matrix-vector products per iteration
on a Gibbs kernel built once per solve (Cuturi 2013). When a scaling leaves
the range where its products stay accurate, it is absorbed into log-domain
potentials and the kernel is rebuilt from them (Schmitzer 2019), so steep
costs that underflow a plain kernel still solve.
"""

from typing import NamedTuple

import numpy as np
from scipy.special import logsumexp

BACKEND = "numpy"

# scalings outside [1/_SAFE, _SAFE] are absorbed into the potentials; the
# product of two in-range scalings stays far inside the float64 range
_SAFE = 1e50


class Scaling(NamedTuple):
    """The plan is ``u[:, None] * kernel * v[None, :]``."""

    u: np.ndarray  # (V,) row scaling; +inf everywhere when the kernel collapsed
    v: np.ndarray  # (K,) column scaling
    iterations_used: int
    converged: bool
    kernel: np.ndarray  # (V, K) exp(Mr + f[:, None] + g[None, :])
    row_err: float  # L1 row and column marginal errors of the last stop test
    col_err: float


def _in_range(s: np.ndarray) -> bool:
    # written so that nan also counts as out of range
    return bool(s.max() < _SAFE and s.min() > 1.0 / _SAFE)


def sinkhorn_log(Mr: np.ndarray, max_iters: int, tol: float) -> Scaling:
    """Scale exp(Mr), (V, K), to the uniform marginals: rows 1/V, columns 1/K.

    Each iteration updates the row scaling, then the column scaling, then
    stops once the L1 row and column marginal errors are both below tol.
    Kernel collapse (a row or column of exp(Mr) with no finite entry)
    returns a non-finite ``u`` for the caller to report.
    """
    V, K = Mr.shape
    a, b = np.full(V, 1.0 / V), np.full(K, 1.0 / K)
    u, v = np.ones(V), np.ones(K)
    iters_used = 0
    converged = False
    row_err = col_err = np.inf
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # absorbed log potentials: the row max keeps every kernel row's
        # largest entry at 1
        f, g = -Mr.max(axis=1), np.zeros(K)
        if not np.all(np.isfinite(f)):
            return Scaling(np.full(V, np.inf), v, 1, False, np.zeros((V, K)),
                           row_err, col_err)
        kernel = np.exp(Mr + f[:, None])
        Kv = kernel.sum(axis=1)
        for it in range(1, max_iters + 1):
            iters_used = it
            # u needs no guard of its own: every kernel row keeps an entry of
            # its plan row's order, so K v neither vanishes nor overflows
            # while v is in range
            u = a / Kv
            KTu = kernel.T @ u
            v = b / KTu
            if not (_in_range(u) and _in_range(v)):
                # redo the column update in the log domain, from the
                # potentials with u absorbed
                f += np.log(u)
                g = np.log(b) - logsumexp(Mr + f[:, None], axis=0)
                if not np.all(np.isfinite(g)):
                    u = np.full(V, np.inf)
                    break
                kernel = np.exp(Mr + f[:, None] + g[None, :])
                u, v = np.ones(V), np.ones(K)
                KTu = kernel.sum(axis=0)
            # row sums of the current plan; also the next row update's product
            Kv = kernel @ v
            row_err = np.abs(u * Kv - a).sum()
            col_err = np.abs(v * KTu - b).sum()
            if row_err < tol and col_err < tol:
                converged = True
                break
    return Scaling(u, v, iters_used, converged, kernel, float(row_err), float(col_err))
