"""Topic-embedding regularization through entropic optimal transport.

Words carry mass 1/V, topics capacity 1/K; the transport plan that moves
word-embedding mass onto topic embeddings at minimal squared-distance cost
(entropy-smoothed, solved by alternating scaling with log-domain absorption
in kernels.py) weights a pull of each topic embedding toward the center of
its word cluster. The plan is treated as a constant between refreshes: no
gradient flows through the solve itself.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import TransportError
from .kernels import sinkhorn_log

DEFAULT_MAX_ITERS = 50
DEFAULT_TOL = 1e-6


def squared_distances(W: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, (V, K), clamped at zero."""
    d2 = (
        np.sum(W * W, axis=1)[:, None]
        - 2.0 * (W @ T.T)
        + np.sum(T * T, axis=1)[None, :]
    )
    np.maximum(d2, 0.0, out=d2)
    return d2


def default_nu(C: np.ndarray) -> float:
    """Entropy weight when none is configured: half the mean cost."""
    return 0.5 * float(np.mean(C))


@dataclass
class TransportProblem:
    cost: np.ndarray  # (V, K) squared distances
    nu: float
    max_iters: int = DEFAULT_MAX_ITERS
    tol: float = DEFAULT_TOL
    row_marginal: np.ndarray = field(init=False)
    col_marginal: np.ndarray = field(init=False)

    def __post_init__(self):
        self.cost = np.asarray(self.cost, dtype=np.float64)
        if self.cost.ndim != 2:
            raise TransportError(f"cost must be 2-D, got shape {self.cost.shape}")
        if self.cost.size == 0:
            raise TransportError("empty cost matrix")
        if np.any(self.cost < 0) or not np.all(np.isfinite(self.cost)):
            raise TransportError("cost entries must be finite and non-negative")
        if self.nu <= 0:
            raise TransportError(f"nu must be positive, got {self.nu}")
        V, K = self.cost.shape
        self.row_marginal = np.full(V, 1.0 / V)
        self.col_marginal = np.full(K, 1.0 / K)


@dataclass
class TransportPlan:
    psi: np.ndarray  # (V, K) non-negative
    iterations_used: int
    converged: bool
    row_err: float
    col_err: float
    # monitored diagnostics, populated when sinkhorn(..., track_objective=True)
    primal_objectives: Optional[list[float]] = None
    dual_objectives: Optional[list[float]] = None


def _primal_objective(C: np.ndarray, P: np.ndarray, nu: float) -> float:
    # <C,P> - nu * H(P), with H(P) = -sum P (log P - 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(P > 0, P * (np.log(P) - 1.0), 0.0)
    return float(np.sum(C * P) + nu * np.sum(plogp))


def sinkhorn(problem: TransportProblem, track_objective: bool = False) -> TransportPlan:
    """Solve the entropy-regularized transport problem by alternating scaling.

    With track_objective=True every iteration's primal value
    <C,psi> - nu*H(psi) and the dual value are recorded (slow path, used by
    diagnostics and tests). Collapse to a non-finite kernel raises, naming
    the offending nu.
    """
    C, nu = problem.cost, problem.nu
    a, b = problem.row_marginal, problem.col_marginal
    with np.errstate(over="ignore"):
        Mr = -C / nu
    if not np.all(np.isfinite(Mr)):
        raise TransportError(f"cost/nu overflows at nu={nu}; increase nu")

    primal: Optional[list[float]] = None
    dual: Optional[list[float]] = None
    record = None
    if track_objective:
        primal, dual = [], []

        def record(F, G):
            P = np.exp(Mr + F[:, None] + G[None, :])
            primal.append(_primal_objective(C, P, nu))
            dual.append(float(nu * (F @ a + G @ b - P.sum())))

    s = sinkhorn_log(Mr, np.log(a), np.log(b), problem.max_iters, problem.tol, record)
    if not np.all(np.isfinite(s.u)):
        raise TransportError(
            f"transport kernel collapsed (non-finite scaling) at nu={nu}; "
            "increase nu or rescale the cost"
        )
    psi = s.u[:, None] * s.kernel * s.v[None, :]
    row_err = float(np.abs(psi.sum(axis=1) - a).sum())
    col_err = float(np.abs(psi.sum(axis=0) - b).sum())
    return TransportPlan(
        psi, s.iterations_used, s.converged, row_err, col_err, primal, dual
    )


def ecr_loss(W: np.ndarray, T: np.ndarray, plan) -> float:
    """Sum of squared word-topic distances weighted by the plan."""
    psi = plan.psi if isinstance(plan, TransportPlan) else np.asarray(plan)
    C = squared_distances(W, T)
    if C.shape != psi.shape:
        raise TransportError(f"plan shape {psi.shape} does not match cost shape {C.shape}")
    return float(np.sum(C * psi))


def ecr_grad(W: np.ndarray, T: np.ndarray, plan) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of ecr_loss w.r.t. W and T with the plan held fixed."""
    psi = plan.psi if isinstance(plan, TransportPlan) else np.asarray(plan)
    row_mass = psi.sum(axis=1)
    col_mass = psi.sum(axis=0)
    dW = 2.0 * (W * row_mass[:, None] - psi @ T)
    dT = 2.0 * (T * col_mass[:, None] - psi.T @ W)
    return dW, dT
