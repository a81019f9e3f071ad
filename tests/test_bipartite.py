import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pptgeo.bipartite import (
    BipartiteSplit,
    MultiplicityNegative,
    SchmidtDecomposition,
    is_ppt,
    partial_transpose,
    pt_spectrum_analytic,
    schmidt,
)
from pptgeo.linalg import DimensionMismatch, hs_distance
from pptgeo.states import (
    PureState,
    WernerParams,
    max_entangled,
    maximally_mixed,
    pure_density,
    sample_hs,
    sample_hs_random,
    werner,
)

from conftest import (
    random_hermitian,
    reduced_a_eigenvalues,
    reference_partial_transpose,
    werner_min_pt_oracle,
)

SPLITS = [BipartiteSplit(2, 2), BipartiteSplit(2, 3), BipartiteSplit(3, 3),
          BipartiteSplit(3, 4), BipartiteSplit(4, 4)]


def random_pure(rng, dim):
    g = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return PureState(dim=dim, amplitudes=g / np.linalg.norm(g))


# --- partial transpose -------------------------------------------------------

def test_split_validation():
    with pytest.raises(ValueError):
        BipartiteSplit(1, 4)
    with pytest.raises(DimensionMismatch):
        BipartiteSplit(2, 2).check_dim(6)


def test_pt_fixes_normalized_identity():
    for split in SPLITS:
        eye = maximally_mixed(split.dim).matrix
        np.testing.assert_array_equal(partial_transpose(eye, split), eye)


def test_pt_entry_permutation_explicit():
    # Index-level pin of the convention on a 2x2 split.
    mat = np.arange(16, dtype=complex).reshape(4, 4)
    expected = np.array([
        [0, 4, 2, 6],
        [1, 5, 3, 7],
        [8, 12, 10, 14],
        [9, 13, 11, 15],
    ], dtype=complex)
    np.testing.assert_array_equal(partial_transpose(mat, BipartiteSplit(2, 2)), expected)


def test_pt_matches_reference_implementation(rng):
    for split in SPLITS:
        g = rng.standard_normal((split.dim, split.dim)) + 1j * rng.standard_normal(
            (split.dim, split.dim))
        h = (g + g.conj().T) / 2
        np.testing.assert_array_equal(
            partial_transpose(h, split),
            reference_partial_transpose(h, split.m, split.n),
        )


def test_pt_of_bell_projector():
    rho = pure_density(max_entangled(2))
    spectrum = np.linalg.eigvalsh(partial_transpose(rho, BipartiteSplit(2, 2)))
    np.testing.assert_allclose(spectrum, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_pt_of_product_state_keeps_spectrum(rng):
    a = sample_hs_random(2, seed=4).matrix
    b = sample_hs_random(3, seed=5).matrix
    rho = np.kron(a, b)
    pt = partial_transpose(rho, BipartiteSplit(2, 3))
    np.testing.assert_allclose(pt, np.kron(a, b.T), atol=1e-15)
    np.testing.assert_allclose(
        np.linalg.eigvalsh(pt), np.linalg.eigvalsh(rho), atol=1e-12
    )
    assert np.linalg.eigvalsh(pt)[0] >= -1e-12


def test_pt_involution_exact(rng):
    for split in SPLITS:
        rho = sample_hs_random(split.dim, seed=split.dim).matrix
        twice = partial_transpose(partial_transpose(rho, split), split)
        np.testing.assert_array_equal(twice, rho)


def test_pt_preserves_trace_exactly(rng):
    for split in SPLITS:
        rho = sample_hs_random(split.dim, seed=100 + split.dim).matrix
        assert np.trace(partial_transpose(rho, split)) == np.trace(rho)


def test_pt_preserves_distance_to_center(rng):
    # Tr (rho^PT)^2 = Tr rho^2, hence equal HS distance to I/N.
    for seed in range(60):
        split = SPLITS[seed % len(SPLITS)]
        rho = sample_hs_random(split.dim, seed=seed)
        eye = maximally_mixed(split.dim).matrix
        d_before = hs_distance(rho.matrix, eye)
        d_after = hs_distance(partial_transpose(rho, split), eye)
        assert abs(d_before - d_after) <= 1e-12


def _random_unitary(rng, dim):
    return np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))[0]


@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 4), n=st.integers(2, 4))
@settings(max_examples=40, deadline=None)
def test_pt_is_an_hs_isometry_fixing_the_center(seed, m, n):
    rng = np.random.default_rng(seed)
    split = BipartiteSplit(m, n)
    x = random_hermitian(rng, split.dim)
    y = random_hermitian(rng, split.dim)
    eye = maximally_mixed(split.dim).matrix
    np.testing.assert_array_equal(partial_transpose(eye, split), eye)
    before = hs_distance(x, y)
    after = hs_distance(partial_transpose(x, split), partial_transpose(y, split))
    assert abs(after - before) <= 1e-12 * before


@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 4), n=st.integers(2, 4))
@settings(max_examples=40, deadline=None)
def test_hs_distance_and_pt_spectrum_invariant_under_local_unitaries(seed, m, n):
    # (U (x) V) rho (U (x) V)† has partial transpose (U (x) conj V) rho^PT (...)†.
    rng = np.random.default_rng(seed)
    split = BipartiteSplit(m, n)
    rho = sample_hs(rng, split.dim).matrix
    sigma = sample_hs(rng, split.dim).matrix
    u = np.kron(_random_unitary(rng, m), _random_unitary(rng, n))
    rho_u, sigma_u = u @ rho @ u.conj().T, u @ sigma @ u.conj().T
    assert abs(hs_distance(rho_u, sigma_u) - hs_distance(rho, sigma)) <= 1e-12

    def pt_spectrum(mat):
        pt = partial_transpose(mat, split)
        return np.linalg.eigvalsh((pt + pt.conj().T) / 2)

    np.testing.assert_allclose(pt_spectrum(rho_u), pt_spectrum(rho), rtol=0, atol=1e-12)


def test_pt_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        partial_transpose(np.eye(5), BipartiteSplit(2, 3))


# --- Schmidt decomposition ---------------------------------------------------

def test_schmidt_product_state():
    psi = PureState(dim=4, amplitudes=np.array([1.0, 0, 0, 0]))
    sd = schmidt(psi, BipartiteSplit(2, 2))
    np.testing.assert_allclose(sd.coefficients, [1.0, 0.0], atol=1e-12)
    assert sd.rank == 1


def test_schmidt_bell_state():
    sd = schmidt(max_entangled(2), BipartiteSplit(2, 2))
    np.testing.assert_allclose(sd.coefficients, [1 / np.sqrt(2)] * 2, atol=1e-12)
    assert sd.rank == 2


def test_schmidt_reconstruction_3x4(rng):
    split = BipartiteSplit(3, 4)
    psi = random_pure(rng, 12)
    sd = schmidt(psi, split)
    c = psi.amplitudes.reshape(3, 4)
    rebuilt = sum(
        sd.coefficients[i] * np.outer(sd.left[:, i], sd.right[:, i].conj())
        for i in range(len(sd.coefficients))
    )
    assert np.max(np.abs(c - rebuilt)) <= 1e-9


def test_schmidt_matches_reduced_density_eigenvalues(rng):
    # alpha_i^2 are the eigenvalues of Tr_B |psi><psi|, computed here by
    # explicit index sums as an independent oracle.
    for split in SPLITS:
        psi = random_pure(rng, split.dim)
        sd = schmidt(psi, split)
        want = np.sort(reduced_a_eigenvalues(psi.amplitudes, split.m, split.n))[::-1]
        k = min(split.m, split.n)
        np.testing.assert_allclose(sd.coefficients**2, want[:k], atol=1e-10)


def test_schmidt_bases_orthonormal(rng):
    split = BipartiteSplit(3, 4)
    # rank-deficient input exercises the completion path
    amp = np.zeros(12, dtype=complex)
    amp[0] = amp[5] = 1 / np.sqrt(2)
    for psi in (random_pure(rng, 12), PureState(dim=12, amplitudes=amp)):
        sd = schmidt(psi, split)
        k = len(sd.coefficients)
        np.testing.assert_allclose(sd.left.conj().T @ sd.left, np.eye(k), atol=1e-10)
        np.testing.assert_allclose(sd.right.conj().T @ sd.right, np.eye(k), atol=1e-10)
        assert np.all(np.diff(sd.coefficients) <= 1e-12)
        assert all(c >= 0 for c in sd.coefficients)
        assert np.sum(sd.coefficients**2) == pytest.approx(1.0, abs=1e-10)


def test_schmidt_dimension_mismatch(rng):
    with pytest.raises(DimensionMismatch):
        schmidt(random_pure(rng, 6), BipartiteSplit(2, 2))


# --- analytic PT spectrum ----------------------------------------------------

def test_analytic_spectrum_bell():
    split = BipartiteSplit(2, 2)
    spectrum = pt_spectrum_analytic(schmidt(max_entangled(2), split), split)
    np.testing.assert_allclose(spectrum, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)
    assert np.sum(spectrum == 0.0) == 0


def test_analytic_spectrum_product_2x3():
    split = BipartiteSplit(2, 3)
    psi = PureState(dim=6, amplitudes=np.eye(6)[0])
    spectrum = pt_spectrum_analytic(schmidt(psi, split), split)
    # zero multiplicity 2*1 + 4 - 1 = 5
    np.testing.assert_allclose(spectrum, [0, 0, 0, 0, 0, 1], atol=1e-12)


def test_analytic_spectrum_matches_numeric(rng):
    for split in SPLITS:
        for _ in range(40):
            psi = random_pure(rng, split.dim)
            analytic = pt_spectrum_analytic(schmidt(psi, split), split)
            numeric = np.sort(
                np.linalg.eigvalsh(partial_transpose(pure_density(psi), split))
            )
            assert np.max(np.abs(analytic - numeric)) <= 1e-9
            assert analytic.size == split.dim


def test_analytic_spectrum_stays_in_range(rng):
    for split in SPLITS:
        psi = random_pure(rng, split.dim)
        spectrum = pt_spectrum_analytic(schmidt(psi, split), split)
        assert spectrum.min() >= -0.5 - 1e-9
        assert spectrum.max() <= 1.0 + 1e-9


def test_analytic_spectrum_rejects_inconsistent_rank():
    # Defensive path: a rank exceeding min(m, n) cannot arise from schmidt().
    bogus = SchmidtDecomposition(
        coefficients=np.array([1.0, 0.0]), rank=3,
        left=np.eye(2), right=np.eye(2),
    )
    with pytest.raises(MultiplicityNegative):
        pt_spectrum_analytic(bogus, BipartiteSplit(2, 2))


# --- is_ppt ------------------------------------------------------------------

def test_is_ppt_maximally_mixed():
    for split in SPLITS:
        check = is_ppt(maximally_mixed(split.dim), split)
        assert check.ppt
        assert check.min_pt_eigenvalue == pytest.approx(1 / split.dim, abs=1e-12)


def test_is_ppt_werner_halfway():
    check = is_ppt(werner(WernerParams(2, 0.5)), BipartiteSplit(2, 2))
    assert not check.ppt
    assert check.min_pt_eigenvalue == pytest.approx(werner_min_pt_oracle(2, 0.5), abs=1e-12)
    assert check.min_pt_eigenvalue == pytest.approx(-0.125, abs=1e-12)


def test_is_ppt_werner_boundary_d3():
    check = is_ppt(werner(WernerParams(3, 0.25)), BipartiteSplit(3, 3))
    assert abs(check.min_pt_eigenvalue) <= 1e-12
    assert check.ppt
