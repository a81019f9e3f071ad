import warnings

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

from pptgeo.bipartite import PPT_TOL
from pptgeo.linalg import (
    DimensionMismatch,
    NotHermitian,
    as_hermitian,
    cholesky_margin,
    cholesky_passes,
    hs_distance,
)
from pptgeo.states import SHELL_PSD_TOL, WernerParams, maximally_mixed, shell_states, werner

from conftest import random_hermitian, reference_shell_attempt, shell_attempt_at


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


# --- Cholesky certificate ----------------------------------------------------

def _with_spectra(rng, spectra):
    """U diag(lambda) U† for each row of `spectra`, U Haar-random, symmetrized
    so that each matrix equals its conjugate transpose bit for bit."""
    dim = spectra.shape[1]
    out = []
    for lam in spectra:
        q, r = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        a = (u * lam) @ u.conj().T
        out.append((a + a.conj().T) / 2)
    return np.stack(out)


def _unit_trace_spectra(rng, dim, lowest):
    """Spectra of N = dim entries and unit trace, one per value of `lowest`,
    which is each one's smallest entry; the others spread over [1, 2]
    times their mean, so the HS norm stays below 1."""
    rest = rng.uniform(1.0, 2.0, size=(len(lowest), dim - 1))
    rest *= (1.0 - lowest[:, None]) / rest.sum(axis=1, keepdims=True)
    return np.column_stack([lowest, rest])


@pytest.mark.parametrize("dim", [4, 9, 16, 36])
@pytest.mark.parametrize("shift", [-0.3, -PPT_TOL, -SHELL_PSD_TOL, 0.0, 0.01])
def test_cholesky_certificate_two_margins_from_the_shift(dim, shift):
    # Smallest eigenvalue shift +- 2 margins: the factorization decides which
    # side it lies on, as the eigen-solve does.
    rng = np.random.default_rng(dim)
    margin = cholesky_margin(dim)
    lowest = shift + np.tile([2 * margin, -2 * margin], 8)
    stack = _with_spectra(rng, _unit_trace_spectra(rng, dim, lowest))
    above = lowest > shift
    assert np.linalg.norm(stack, axis=(1, 2)).max() < 1.0
    solved = np.linalg.eigvalsh(stack)[:, 0]
    assert ((solved > shift) == above).all()
    assert (cholesky_passes(stack, shift) == above).all()


@pytest.mark.parametrize("dim", [4, 9, 16])
def test_shell_candidates_next_to_the_psd_threshold_go_to_the_eigensolve(monkeypatch, dim):
    # Shell attempts whose float64 candidates have their smallest eigenvalue
    # at -SHELL_PSD_TOL +- 1e-13, inside the margin (3.6e-13 at N = 4): the
    # certificate must leave each to eigvalsh, and shell_states keep the
    # attempts it accepts.
    seeds = [[dim, i] for i in range(8)]
    attempts = [shell_attempt_at(dim, -SHELL_PSD_TOL + offset, seed)
                for seed, offset in zip(seeds, [1e-13, -1e-13] * 4)]
    want = [reference_shell_attempt(np.random.default_rng(seed), dim, radius) is not None
            for seed, (_, radius) in zip(seeds, attempts)]
    assert want == [True, False] * 4
    solved = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        solved.extend(a)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    for (u, radius), accepted in zip(attempts, want):
        assert len(shell_states(u, dim, radius)) == accepted
    assert len(solved) == len(attempts)


def test_stacked_cholesky_kernel_leaves_nan_in_failing_rows():
    # cholesky_passes relies on numpy's stacked kernel returning NaN rows
    # where np.linalg.cholesky raises for the whole stack; a numpy that
    # changes this fails here by name.
    stack = np.stack([np.eye(3), -np.eye(3), np.diag([1.0, 1.0, -1.0]),
                      np.diag([2.0, 1.0, 0.5]), np.diag([1.0, 0.0, 1.0])]).astype(np.complex128)
    with np.errstate(invalid="ignore"):
        factor = _umath_linalg.cholesky_lo(stack, signature="D->D")
    for i in (0, 3):
        assert factor[i].tobytes() == np.linalg.cholesky(stack[i]).tobytes()
    for i in (1, 2, 4):
        assert np.isnan(factor[i]).all()
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(stack)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cholesky_passes(stack, 0.0).tolist() == [True, False, False, True, False]
        assert cholesky_passes(stack, -1.5).all()
    assert cholesky_passes(stack[:0], 0.0).shape == (0,)


def test_cholesky_margin_values():
    # 100 N^2.5 u with u = 2^-53.
    assert cholesky_margin(4) == pytest.approx(3.55e-13, rel=1e-2)
    assert cholesky_margin(36) == pytest.approx(8.63e-11, rel=1e-2)
    assert cholesky_margin(36) < PPT_TOL / 10
