"""Topic-embedding regularization through entropic optimal transport.

Words carry mass 1/V, topics capacity 1/K; the transport plan that moves
word-embedding mass onto topic embeddings at minimal squared-distance cost
(entropy-smoothed, solved by alternating scaling with log-domain absorption
in kernels.py) weights a pull of each topic embedding toward the center of
its word cluster. The plan is treated as a constant between refreshes: no
gradient flows through the solve itself.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .corpus import row_sq_norms
from .errors import TransportError
from .kernels import sinkhorn_log

DEFAULT_MAX_ITERS = 50
DEFAULT_TOL = 1e-6


def squared_distances(X, C: np.ndarray, xsq: Optional[np.ndarray] = None) -> np.ndarray:
    """Pairwise squared Euclidean distances between the rows of X, dense or
    CSR, and of C, (N, K), clamped at zero because the expanded form can go
    slightly negative. ``xsq`` holds X's squared row norms when the caller
    has them.

    |x|^2 - 2 x.c + |c|^2 formed in the product's own output array;
    -2 x.c + |x|^2 rounds as |x|^2 - 2 x.c does, so the bits are those of
    the direct sum."""
    d2 = np.asarray(X @ C.T)
    d2 *= -2.0
    d2 += (row_sq_norms(X) if xsq is None else xsq)[:, None]
    d2 += row_sq_norms(C)[None, :]
    np.maximum(d2, 0.0, out=d2)
    return d2


@dataclass
class TransportPlan:
    psi: np.ndarray  # (V, K) non-negative
    iterations_used: int
    converged: bool
    row_err: float  # L1 marginal errors of the solver's last stop test
    col_err: float


def sinkhorn(
    cost: np.ndarray,
    nu: float,
    max_iters: int = DEFAULT_MAX_ITERS,
    tol: float = DEFAULT_TOL,
) -> TransportPlan:
    """Solve the entropy-regularized transport problem by alternating scaling.

    ``cost`` is the (V, K) squared-distance matrix and ``nu`` > 0 the
    entropy weight. Collapse to a non-finite kernel raises, naming the
    offending nu.
    """
    C = np.asarray(cost, dtype=np.float64)
    if C.ndim != 2:
        raise TransportError(f"cost must be 2-D, got shape {C.shape}")
    if C.size == 0:
        raise TransportError("empty cost matrix")
    if np.any(C < 0) or not np.all(np.isfinite(C)):
        raise TransportError("cost entries must be finite and non-negative")
    if nu <= 0:
        raise TransportError(f"nu must be positive, got {nu}")
    with np.errstate(over="ignore"):
        Mr = -C / nu
    if not np.all(np.isfinite(Mr)):
        raise TransportError(f"cost/nu overflows at nu={nu}; increase nu")
    s = sinkhorn_log(Mr, max_iters, tol)
    if not np.all(np.isfinite(s.u)):
        raise TransportError(
            f"transport kernel collapsed (non-finite scaling) at nu={nu}; "
            "increase nu or rescale the cost"
        )
    psi = s.u[:, None] * s.kernel * s.v[None, :]
    return TransportPlan(psi, s.iterations_used, s.converged, s.row_err, s.col_err)
