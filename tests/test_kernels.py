import numpy as np
from scipy.special import logsumexp

from glocom.kernels import BACKEND, sinkhorn_log


def _uniform_logmarg(V, K):
    return np.log(np.full(V, 1.0 / V)), np.log(np.full(K, 1.0 / K))


def reference_sinkhorn_log(Mr, loga, logb, max_iters, tol):
    """Log-domain alternating marginal scaling, the oracle.

    Same updates and stop rule as the solver, with every half-update a
    logsumexp over the log kernel. Returns (u, v, iterations_used,
    converged) with u, v log potentials: the plan is exp(Mr + u + v).
    """
    a = np.exp(loga)
    b = np.exp(logb)
    u = np.zeros_like(loga)
    v = np.zeros_like(logb)
    iters_used = 0
    converged = False
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, max_iters + 1):
            iters_used = it
            u = loga - logsumexp(Mr + v[None, :], axis=1)
            if not np.all(np.isfinite(u)):
                u = np.full_like(u, np.inf)
                break
            v = logb - logsumexp(Mr + u[:, None], axis=0)
            if not np.all(np.isfinite(v)):
                u = np.full_like(u, np.inf)
                break
            P = np.exp(Mr + u[:, None] + v[None, :])
            row_err = np.abs(P.sum(axis=1) - a).sum()
            col_err = np.abs(P.sum(axis=0) - b).sum()
            if row_err < tol and col_err < tol:
                converged = True
                break
    return u, v, iters_used, converged


def _plan(s):
    return s.u[:, None] * s.kernel * s.v[None, :]


def _assert_matches_reference(Mr, max_iters, tol, atol=0.0):
    V, K = Mr.shape
    loga, logb = _uniform_logmarg(V, K)
    u, v, iters, converged = reference_sinkhorn_log(Mr, loga, logb, max_iters, tol)
    s = sinkhorn_log(Mr, max_iters, tol)
    assert (s.iterations_used, s.converged) == (iters, converged)
    P = _plan(s)
    np.testing.assert_allclose(P, np.exp(Mr + u[:, None] + v[None, :]), rtol=1e-10, atol=atol)
    # the reported errors are the returned plan's L1 marginal errors
    np.testing.assert_allclose(
        [s.row_err, s.col_err],
        [np.abs(P.sum(axis=1) - 1 / V).sum(), np.abs(P.sum(axis=0) - 1 / K).sum()],
        rtol=1e-6, atol=1e-13,
    )
    return s


def test_plans_match_reference_on_random_costs():
    rng = np.random.default_rng(0)
    stopped = finished = 0
    for trial in range(20):
        V, K = int(rng.integers(2, 40)), int(rng.integers(2, 12))
        C = rng.uniform(0, 3, size=(V, K))
        nu = float(rng.uniform(0.05, 1.0))
        for max_iters in (500, 5):
            s = _assert_matches_reference(-C / nu, max_iters, 1e-9)
            finished += s.converged
            stopped += not s.converged
    assert finished > 0 and stopped > 0


def test_plan_matches_reference_at_training_size():
    # ECRTM's nu=0.05 on a 2000 x 50 squared-distance cost: the solve
    # stops at max_iters, as most training solves do
    rng = np.random.default_rng(4)
    W = rng.normal(scale=0.3, size=(2000, 16))
    T = rng.normal(scale=0.3, size=(50, 16))
    C = ((W[:, None, :] - T[None, :, :]) ** 2).sum(axis=2)
    s = _assert_matches_reference(-C / 0.05, 50, 1e-6)
    assert not s.converged and s.iterations_used == 50


def test_overflow_regime_matches_reference():
    # Row and column offsets leave the optimal plan unchanged but push
    # cost/nu to about -2000, where exp(Mr) underflows to whole zero rows
    # and plain scaling divides by zero
    rng = np.random.default_rng(2)
    V, K, tol = 40, 8, 1e-9
    C = (rng.uniform(0, 1, size=(V, K)) + rng.uniform(0, 60, size=(V, 1))
         + rng.uniform(0, 60, size=K))
    Mr = -C / 0.05
    assert np.any(np.exp(Mr).sum(axis=1) == 0.0)
    s = _assert_matches_reference(Mr, 2000, tol)
    assert s.converged
    P = _plan(s)
    assert np.abs(P.sum(axis=1) - 1 / V).sum() < tol
    assert np.abs(P.sum(axis=0) - 1 / K).sum() < tol


def test_steep_costs_match_reference():
    # nu=0.01 on embedding distances: cost/nu reaches about -2900. Entries
    # the oracle keeps below 1e-300 underflow to zero here, so the match is
    # absolute, at 1e-12 of a plan whose entries sum to 1.
    rng = np.random.default_rng(0)
    W = rng.normal(size=(30, 4))
    T = rng.normal(size=(6, 4))
    C = ((W[:, None, :] - T[None, :, :]) ** 2).sum(axis=2)
    s = _assert_matches_reference(-C / 0.01, 500, 1e-9, atol=1e-12)
    assert not s.converged
    # A kernel column of 1e-300 down to subnormal 1e-320: its scaling
    # stays finite, but the subnormal entries carry a few bits only, so
    # the plan keeps full precision only if the scaling is absorbed.
    Mr = np.array([[0.0, -690.0], [0.0, -700.0], [0.0, -736.0], [-1.0, -737.0]])
    _assert_matches_reference(Mr, 200, 1e-12)


def test_kernel_poisons_potentials_on_collapse():
    # a row of the Gibbs kernel with no finite entry cannot be scaled
    Mr = np.array([[0.0, -1.0], [-np.inf, -np.inf]])
    s = sinkhorn_log(Mr, 10, 1e-6)
    assert not s.converged
    assert not np.all(np.isfinite(s.u))
    # and a column
    s = sinkhorn_log(Mr.T.copy(), 10, 1e-6)
    assert not s.converged
    assert not np.all(np.isfinite(s.u))


def test_kernel_converges_and_reports_iterations():
    rng = np.random.default_rng(1)
    C = rng.uniform(0, 1, size=(20, 5))
    s = sinkhorn_log(-C / 0.5, 1000, 1e-8)
    assert s.converged
    assert 1 <= s.iterations_used < 1000
    P = _plan(s)
    assert np.abs(P.sum(1) - 1 / 20).sum() < 1e-8
    assert np.abs(P.sum(0) - 1 / 5).sum() < 1e-8


def test_backend_name_is_reported():
    assert BACKEND == "numpy"
