"""write_matrix_csv against its oracle, np.savetxt(fmt="%.17g", delimiter=",")."""

import io
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from glocom.corpus import _BLOCK
from glocom.model import write_matrix_csv


def savetxt_bytes(M):
    buf = io.BytesIO()
    np.savetxt(buf, M, fmt="%.17g", delimiter=",")
    return buf.getvalue()


def assert_same_bytes(tmp_path, M):
    path = tmp_path / "m.csv"
    write_matrix_csv(M, str(path))
    got, want = path.read_bytes(), savetxt_bytes(np.asarray(M, dtype=np.float64))
    if got != want:  # name the first differing line, not two long blobs
        for i, (g, w) in enumerate(zip(got.split(b"\n"), want.split(b"\n"))):
            assert g == w, f"line {i}"
    assert got == want


def test_random_bit_patterns(tmp_path):
    # uniform bits: every exponent, both signs, subnormals and nan
    bits = np.random.default_rng(0).integers(0, 2**64, size=120_000, dtype=np.uint64)
    M = bits.view(np.float64).reshape(-1, 40)
    assert np.isnan(M).any()
    assert_same_bytes(tmp_path, M)


def test_log_uniform_values(tmp_path):
    # most values here are vectorised; the uniform bits above mostly are not
    rng = np.random.default_rng(6)
    M = 10.0 ** rng.uniform(-8, 18, size=100_000) * rng.choice([-1.0, 1.0], 100_000)
    assert_same_bytes(tmp_path, M.reshape(-1, 50))


def test_softmax_rows(tmp_path):
    rng = np.random.default_rng(1)
    assert_same_bytes(tmp_path, rng.dirichlet(np.full(50, 0.1), size=700))


def test_powers_of_ten_and_neighbours(tmp_path):
    p = np.array([float(f"1e{k}") for k in range(-7, 18)])
    M = np.stack([p, np.nextafter(p, 0), np.nextafter(p, np.inf)])
    assert_same_bytes(tmp_path, np.concatenate([M, -M]))


def test_window_edges(tmp_path):
    # 1e-6 as a double lies just below 10^-6, so it is formatted by "%"
    # while its upper neighbour is not
    edges = np.array([1e-6, 1e16])
    M = np.stack([edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf)])
    assert_same_bytes(tmp_path, np.concatenate([M, -M]))


def test_rounding_that_carries_into_the_next_decade(tmp_path):
    # the largest double below each power of ten; where "%.17g" rounds it up
    # to that power, the printed exponent is one more than the value's own
    below, carries = [], []
    for e in range(-30, 25):
        p = Fraction(10) ** e
        x = float(p)
        if Fraction(x) >= p:
            x = math.nextafter(x, 0.0)
        below.append(x)
        if Fraction("%.17g" % x) == p:
            carries.append(x)
    assert carries  # 1e-14 is one: it lies below 10^-14 and prints as 1e-14
    # near-decade values inside the window, down to the last 17th digit
    nines = [float(f"9.99999999999999{d}e{e}") for d in range(90, 100)
             for e in range(-7, 17)]
    M = np.array(below + nines)
    assert_same_bytes(tmp_path, np.concatenate([M, -M])[:, None])


def test_ties_round_to_even(tmp_path):
    # m * 2^(-k-1) with m odd: |x| * 10^k ends in exactly .5, for every
    # scale 10^k the writer uses
    rng = np.random.default_rng(2)
    vals = []
    for k in range(1, 23):
        lo, hi = 2 * 10**16 // 5**k + 1, min(2 * 10**17 // 5**k, 2**53)
        m = rng.integers(lo, hi, size=20) | 1
        x = np.ldexp(m.astype(np.float64), -k - 1)
        assert all(Fraction(v) * 10**k % 1 == Fraction(1, 2) for v in x)
        vals.append(x)
    M = np.concatenate(vals)
    assert_same_bytes(tmp_path, np.stack([M, -M], axis=1))


def test_special_values(tmp_path):
    M = np.array([[0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf],
                  [5e-324, -5e-324, 2.2250738585072009e-308, -2.2250738585072014e-308,
                   np.finfo(np.float64).max, -np.finfo(np.float64).tiny],
                  [1.0, -7.0, 42.0, 2.0**53, 2.0**53 + 2, 123456789012345.0],
                  [-0.5, -0.25, -1e-5, -9.5e-5, -1e-4, -3.14159]])
    assert_same_bytes(tmp_path, M)


@pytest.mark.parametrize("shape", [(1, 1), (1, 37), (23, 1), (0, 5), (3, 0)])
def test_shapes(tmp_path, shape):
    M = np.random.default_rng(3).random(shape)
    assert_same_bytes(tmp_path, M)


def test_one_dimensional_input_is_one_column(tmp_path):
    assert_same_bytes(tmp_path, np.linspace(-1.0, 1.0, 11))


def test_matrix_spanning_several_blocks(tmp_path):
    cols = 7
    rows = 3 * (_BLOCK // cols) + 5
    M = np.random.default_rng(4).normal(scale=1e3, size=(rows, cols))
    assert_same_bytes(tmp_path, M)


def test_out_of_window_matrix_spanning_several_blocks(tmp_path):
    # most values are formatted by "%", a block's worth at a time
    cols = 5
    rows = 3 * (_BLOCK // cols) + 5
    rng = np.random.default_rng(7)
    M = 10.0 ** rng.uniform(-323, 308, size=(rows, cols)) * rng.choice([-1.0, 1.0], (rows, cols))
    special = rng.random(M.shape) < 0.05
    M[special] = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan], special.sum())
    assert np.mean(~((np.abs(M) > 1e-6) & (np.abs(M) < 1e16))) > 0.9
    assert_same_bytes(tmp_path, M)


def test_rejects_three_dimensions(tmp_path):
    with pytest.raises(ValueError):
        write_matrix_csv(np.zeros((2, 2, 2)), str(tmp_path / "m.csv"))


def test_peak_allocation_does_not_grow_with_rows(tmp_path):
    rng = np.random.default_rng(5)
    peaks = []
    for rows in (2_000, 16_000):
        M = rng.dirichlet(np.ones(50), size=rows)
        tracemalloc.start()
        write_matrix_csv(M, str(tmp_path / "m.csv"))
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]
