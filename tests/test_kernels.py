import numpy as np
import pytest
from oracles import sinkhorn_log_per_iteration
from scipy.special import logsumexp

from glocom.kernels import _BLOCK, BACKEND, Scaling, sinkhorn_log


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


def _assert_same_as_per_iteration(Mr, max_iters, tol):
    """The block-tested loop returns every field of the per-iteration
    loop's result bit for bit."""
    got = sinkhorn_log(Mr, max_iters, tol)
    want = sinkhorn_log_per_iteration(Mr, max_iters, tol)
    for name, g, w in zip(Scaling._fields, got, want):
        if isinstance(w, np.ndarray):
            np.testing.assert_array_equal(g, w, err_msg=name)
        else:
            assert type(g) is type(w) and g == w, name
    return want


def _absorbed_at(Mr, it, tol):
    # the per-iteration loop stopped at iteration ``it`` returns unit
    # scalings only when that iteration absorbed them
    s = sinkhorn_log_per_iteration(Mr, it, tol)
    return s.iterations_used == it and np.all(s.u == 1.0) and np.all(s.v == 1.0)


@pytest.mark.parametrize("max_iters", [1, 7, 50])
def test_block_tests_match_per_iteration_tests_on_random_costs(max_iters):
    rng = np.random.default_rng(11)
    for _ in range(30):
        V, K = int(rng.integers(1, 60)), int(rng.integers(1, 12))
        C = rng.uniform(0, 3, size=(V, K))
        nu = float(rng.uniform(0.02, 1.0))
        for tol in (1e-3, 1e-6, 1e-9):
            _assert_same_as_per_iteration(-C / nu, max_iters, tol)


def test_block_tests_match_per_iteration_tests_when_rows_pass_and_columns_fail():
    # at a tolerance below the columns' rounding error, some iterations pass
    # the row test and fail the column test (21 and 24 with one BLAS
    # thread here); the solve must go on past each
    rng = np.random.default_rng(20)
    V, K = int(rng.integers(2, 40)), int(rng.integers(2, 12))
    Mr = -rng.uniform(0, 3, size=(V, K)) / float(rng.uniform(0.05, 1.0))
    tol = 5e-17
    split = [it for it in range(1, 60)
             if (s := sinkhorn_log_per_iteration(Mr, it, tol)).row_err < tol <= s.col_err]
    assert split
    assert _assert_same_as_per_iteration(Mr, 60, tol).iterations_used > split[0]
    for max_iters in {*split, *(it + 1 for it in split)}:
        _assert_same_as_per_iteration(Mr, max_iters, tol)


def test_block_tests_match_per_iteration_tests_when_absorbing_mid_block():
    # column 1 sits about 1e-50 below every row's max, so its scaling
    # climbs toward a fixed point just above 1e50 and leaves the range at
    # an iteration set by how far above: most positions within a block
    rng = np.random.default_rng(3)
    base = rng.uniform(-2, 0, size=(4, 2))
    base[:, 1] -= np.log(1e50)
    shift = np.log(sinkhorn_log_per_iteration(base, 500, 0.0).v[1] / 1e50)
    seen = set()
    for d in np.geomspace(1e-6, 6e-15, 40):
        Mr = base.copy()
        Mr[:, 1] += shift - d
        first = next(it for it in range(1, 30) if _absorbed_at(Mr, it, 1e-16))
        seen.add((first - 1) % _BLOCK)
        for max_iters in (first - 1, first, first + 1, 50):
            for tol in (1e-16, 1e-9):
                _assert_same_as_per_iteration(Mr, max_iters, tol)
    assert len(seen) >= 6
    # repeated absorptions, at iterations 73, 174 and 375
    rng = np.random.default_rng(0)
    W, T = rng.normal(size=(30, 4)), rng.normal(size=(6, 4))
    Mr = -((W[:, None, :] - T[None, :, :]) ** 2).sum(axis=2) / 0.01
    assert [it for it in (72, 73, 174, 375) if _absorbed_at(Mr, it, 1e-9)] == [73, 174, 375]
    for max_iters in (73, 80, 174, 500):
        _assert_same_as_per_iteration(Mr, max_iters, 1e-9)


def test_block_tests_match_per_iteration_tests_on_collapsing_costs():
    for Mr in (np.array([[0.0, -1.0], [-np.inf, -np.inf]]),   # a row with no entry
               np.array([[0.0, -np.inf], [-1.0, -np.inf]]),   # a column
               np.array([[0.0, -1.0], [np.nan, 0.0]])):
        for max_iters in (1, 7, 50):
            s = _assert_same_as_per_iteration(Mr, max_iters, 1e-6)
            assert not s.converged and not np.all(np.isfinite(s.u))
