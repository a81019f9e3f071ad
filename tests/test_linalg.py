import numpy as np
import pytest

from pptgeo.linalg import DimensionMismatch, NotHermitian, as_hermitian, hs_distance
from pptgeo.states import WernerParams, maximally_mixed, werner

from conftest import random_hermitian


# --- as_hermitian ------------------------------------------------------------

def test_as_hermitian_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        as_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_as_hermitian_symmetrizes_roundoff():
    h = np.array([[1.0, 0.5 + 1e-12j], [0.5 - 2e-12j, 2.0]])
    out = as_hermitian(h)
    np.testing.assert_array_equal(out, out.conj().T)


# --- hs_distance -------------------------------------------------------------

def test_distance_zero_on_equal():
    h = np.diag([0.25, 0.75])
    assert hs_distance(h, h) == 0.0


def test_distance_orthogonal_projectors():
    assert hs_distance(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == pytest.approx(
        np.sqrt(2), abs=1e-15
    )


@pytest.mark.parametrize("p", [0.2, 0.5, 1.0])
def test_distance_of_werner_to_center(p):
    # D(rho_w(d=2, p), I/4) = p sqrt(3/4)
    w = werner(WernerParams(2, p))
    d = hs_distance(w.matrix, maximally_mixed(4).matrix)
    assert d == pytest.approx(p * np.sqrt(3 / 4), abs=1e-14)


def test_distance_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        hs_distance(np.eye(2), np.eye(3))


def test_distance_triangle_inequality(rng):
    for _ in range(100):
        dim = int(rng.integers(2, 9))
        a = random_hermitian(rng, dim)
        b = random_hermitian(rng, dim)
        c = random_hermitian(rng, dim)
        assert hs_distance(a, c) <= hs_distance(a, b) + hs_distance(b, c) + 1e-12


def test_distance_squared_trace_expansion(rng):
    # D(A,B)^2 = Tr A^2 - 2 Tr AB + Tr B^2
    for _ in range(50):
        dim = int(rng.integers(2, 9))
        a = random_hermitian(rng, dim)
        b = random_hermitian(rng, dim)
        lhs = hs_distance(a, b) ** 2
        rhs = (np.trace(a @ a) - 2 * np.trace(a @ b) + np.trace(b @ b)).real
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_distance_symmetry(rng):
    a = random_hermitian(rng, 5)
    b = random_hermitian(rng, 5)
    assert hs_distance(a, b) == hs_distance(b, a)
