import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pptgeo import states
from pptgeo.bipartite import BipartiteSplit, is_ppt, min_pt_eigenvalues
from pptgeo.linalg import DimensionMismatch, hs_distance
from pptgeo.states import (
    SHELL_BOUND_MARGIN,
    SHELL_PSD_TOL,
    DensityMatrix,
    NotNormalized,
    PureState,
    ShellUnreachable,
    WernerParams,
    complex_ginibre,
    convex_mix,
    max_entangled,
    maximally_mixed,
    pure_density,
    sample_hs_random,
    sample_on_shell,
    shell_batch,
    shell_chunk,
    standard_normals,
    werner,
)

from conftest import reference_min_pt_eigenvalue, reference_shell_attempt, werner_min_pt_oracle


# --- validation --------------------------------------------------------------

def test_density_matrix_rejects_bad_trace():
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(dim=2, matrix=np.eye(2))


def test_density_matrix_rejects_negative_eigenvalue():
    with pytest.raises(ValueError, match="eigenvalue"):
        DensityMatrix(dim=2, matrix=np.diag([1.1, -0.1]))


def test_pure_state_requires_normalization():
    with pytest.raises(NotNormalized):
        PureState(dim=2, amplitudes=np.array([1.0, 1.0]))


def test_werner_params_ranges():
    with pytest.raises(ValueError):
        WernerParams(1, 0.5)
    with pytest.raises(ValueError):
        WernerParams(2, 1.2)


# --- constructors ------------------------------------------------------------

def test_maximally_mixed_values():
    np.testing.assert_array_equal(maximally_mixed(2).matrix, np.eye(2) / 2)
    np.testing.assert_array_equal(maximally_mixed(4).matrix, np.eye(4) / 4)


def test_maximally_mixed_distance_to_itself():
    m = maximally_mixed(5)
    assert hs_distance(m.matrix, m.matrix) == 0.0


def test_pure_density_basis_state():
    rho = pure_density(PureState(dim=2, amplitudes=np.array([1.0, 0.0])))
    np.testing.assert_array_equal(rho.matrix, np.diag([1.0, 0.0]).astype(complex))


def test_pure_density_bell_corners():
    bell = PureState(dim=4, amplitudes=np.array([1, 0, 0, 1]) / np.sqrt(2))
    rho = pure_density(bell).matrix
    assert rho[0, 0] == pytest.approx(0.5)
    assert rho[0, 3] == pytest.approx(0.5)
    assert rho[3, 0] == pytest.approx(0.5)
    assert rho[3, 3] == pytest.approx(0.5)


def test_pure_density_is_rank_one(rng):
    g = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    psi = PureState(dim=6, amplitudes=g / np.linalg.norm(g))
    assert pure_density(psi).purity() == pytest.approx(1.0, abs=1e-12)


def test_werner_p0_is_maximally_mixed():
    np.testing.assert_allclose(
        werner(WernerParams(2, 0.0)).matrix, maximally_mixed(4).matrix, atol=1e-15
    )


def test_werner_p1_is_bell_projector():
    expected = pure_density(max_entangled(2)).matrix
    np.testing.assert_allclose(werner(WernerParams(2, 1.0)).matrix, expected, atol=1e-15)


def test_werner_qubit_threshold_is_exact():
    # At p = 1/3 the PT floor of the 2x2 Werner family sits exactly at zero;
    # cross-checked against the closed form (1-p)/4 - p/2.
    state = werner(WernerParams(2, 1 / 3))
    check = is_ppt(state, BipartiteSplit(2, 2))
    assert check.min_pt_eigenvalue == pytest.approx(0.0, abs=1e-12)
    assert werner_min_pt_oracle(2, 1 / 3) == pytest.approx(0.0, abs=1e-16)


def test_convex_mix_endpoints(rng):
    a = sample_hs_random(4, seed=1)
    b = sample_hs_random(4, seed=2)
    np.testing.assert_array_equal(convex_mix(1.0, a, b).matrix, a.matrix)
    np.testing.assert_array_equal(convex_mix(0.0, a, b).matrix, b.matrix)


def test_convex_mix_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        convex_mix(0.5, sample_hs_random(4, 0), sample_hs_random(9, 0))


@given(p=st.floats(0.0, 1.0), seed=st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_convex_mix_stays_in_psd_cone(p, seed):
    a = sample_hs_random(6, seed=seed)
    b = sample_hs_random(6, seed=seed + 1)
    mixed = convex_mix(p, a, b)  # construction re-validates all invariants
    assert np.linalg.eigvalsh(mixed.matrix)[0] >= -1e-9


# --- sampling ----------------------------------------------------------------

def test_sample_hs_unit_trace_and_psd():
    for seed in range(20):
        rho = sample_hs_random(5, seed=seed)
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(rho.matrix)[0] >= -1e-12


def test_sample_hs_deterministic_for_fixed_seed():
    a = sample_hs_random(4, seed=42)
    b = sample_hs_random(4, seed=42)
    np.testing.assert_array_equal(a.matrix, b.matrix)


def test_sample_hs_purity_bounds():
    for seed in range(50):
        dim = 2 + seed % 5
        purity = sample_hs_random(dim, seed=seed).purity()
        assert 1 / dim - 1e-12 <= purity <= 1 + 1e-12


def test_gaussian_stream_moments():
    g = standard_normals(np.random.default_rng(0), 200_000)
    assert abs(g.mean()) < 0.01
    assert abs(g.std() - 1.0) < 0.01


def test_ginibre_shape_and_determinism():
    a = complex_ginibre(np.random.default_rng(7), 3)
    b = complex_ginibre(np.random.default_rng(7), 3)
    assert a.shape == (3, 3)
    np.testing.assert_array_equal(a, b)


def test_shell_tiny_radius_always_accepted():
    rho = sample_on_shell(4, radius=1e-6, seed=0, max_rejects=1)
    d = hs_distance(rho.matrix, maximally_mixed(4).matrix)
    assert abs(d - 1e-6) <= 1e-12


def test_shell_hits_requested_radius():
    for seed, radius in [(0, 0.05), (1, 0.15), (2, 0.28)]:
        rho = sample_on_shell(4, radius=radius, seed=seed)
        d = hs_distance(rho.matrix, maximally_mixed(4).matrix)
        assert abs(d - radius) <= 1e-12


def test_shell_deterministic():
    a = sample_on_shell(9, radius=0.1, seed=11)
    b = sample_on_shell(9, radius=0.1, seed=11)
    np.testing.assert_array_equal(a.matrix, b.matrix)


def test_shell_inside_guarantee_radius_is_ppt_any_split():
    # At N=4, r=0.28 the floor 1/N - r sqrt((N-1)/N) is still positive, so
    # every accepted sample is PPT under any split.
    assert 1 / 4 - 0.28 * np.sqrt(3 / 4) > 0
    split = BipartiteSplit(2, 2)
    for seed in range(50):
        rho = sample_on_shell(4, radius=0.28, seed=seed)
        assert is_ppt(rho, split).ppt


def test_shell_unreachable_raises():
    with pytest.raises(ShellUnreachable):
        sample_on_shell(4, radius=0.86, seed=0, max_rejects=50)


def test_shell_radius_domain():
    with pytest.raises(ValueError):
        sample_on_shell(4, radius=0.9, seed=0)  # beyond sqrt(3/4)
    with pytest.raises(ValueError):
        sample_on_shell(4, radius=0.0, seed=0)


def test_shell_acceptance_nonincreasing_report():
    # Statistical observation, reported rather than asserted: acceptance
    # falls with radius once shells extend beyond the PSD-guaranteed zone.
    rates = []
    for radius in (0.3, 0.5, 0.7):
        accepted = 0
        rng = np.random.default_rng(123)
        from pptgeo.states import shell_attempt

        for _ in range(300):
            if shell_attempt(rng, 4, radius) is not None:
                accepted += 1
        rates.append(accepted / 300)
    print(f"shell acceptance by radius (N=4): {rates}")
    assert all(0.0 <= rate <= 1.0 for rate in rates)


# --- batched shell kernel vs the per-sample reference ---------------------

# Radii in units of the spectral floor 1/sqrt(N(N-1)).  The first lies
# inside the floor, where every row is a certified accept; the middle two mix
# PPT and NPT samples and also reject some attempts; the last sits at 0.95 of
# the outer radius sqrt((N-1)/N) = (N-1) floors, where most rows are
# certified diagonal rejects.
SHELL_CASES = {4: ((2, 2), (0.9, 1.5, 2.0, 2.85)), 6: ((2, 3), (0.9, 1.7, 2.2, 4.75)),
               8: ((2, 4), (0.9, 2.0, 2.6, 6.65)), 9: ((3, 3), (0.9, 2.2, 2.8, 7.6)),
               16: ((4, 4), (0.9, 2.2, 3.8, 14.25)), 25: ((5, 5), (0.9, 3.0, 5.0, 22.8))}


def test_shell_chunk_budget():
    assert shell_chunk(4) == 256
    assert shell_chunk(16) == 16
    assert shell_chunk(64) == 1


@pytest.mark.parametrize("dim", sorted(SHELL_CASES))
def test_shell_batch_bit_identical_to_per_sample_reference(dim, monkeypatch):
    # Rows settled by each branch of the PSD decision: certified accept,
    # certified reject, eigen-solve.
    branches = np.zeros(3, dtype=int)
    bounds = states._psd_bounds

    def counted_bounds(candidates, scale, radius):
        accept, reject = bounds(candidates, scale, radius)
        branches[:] += [accept.sum(), reject.sum(), (~(accept | reject)).sum()]
        return accept, reject

    monkeypatch.setattr(states, "_psd_bounds", counted_bounds)

    (m, n), factors = SHELL_CASES[dim]
    chunk = shell_chunk(dim)
    split = BipartiteSplit(m, n)
    rejected = npt = ppt = 0
    for factor in factors:
        radius = factor / np.sqrt(dim * (dim - 1))
        for count in (1, chunk - 1, chunk, chunk + 1):
            seed = [dim, count, int(factor * 10)]
            ref_rng = np.random.default_rng(seed)
            attempts = [reference_shell_attempt(ref_rng, dim, radius) for _ in range(count)]
            expected = [a for a in attempts if a is not None]
            rng = np.random.default_rng(seed)
            batch = shell_batch(rng, dim, radius, count)

            assert batch.shape == (len(expected), dim, dim)
            for got, want in zip(batch, expected):
                assert got.tobytes() == want.tobytes()
            floors = min_pt_eigenvalues(batch, split) if len(batch) else np.empty(0)
            want_floors = [reference_min_pt_eigenvalue(a, m, n) for a in expected]
            assert floors.tobytes() == np.array(want_floors, dtype=np.float64).tobytes()
            assert rng.bit_generator.state == ref_rng.bit_generator.state

            rejected += count - len(expected)
            npt += int(np.sum(floors < -1e-9))
            ppt += int(np.sum(floors >= -1e-9))
    assert rejected > 0 and npt > 0 and ppt > 0
    assert np.all(branches > 0), f"branch rows (accept, reject, eigen-solve): {branches}"


def test_shell_batch_inside_floor_runs_no_eigensolve(monkeypatch):
    def no_eigensolve(*args, **kwargs):
        raise AssertionError("eigen-solve inside the spectral floor")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolve)
    for dim in (4, 9, 16):
        radius = 0.999 / np.sqrt(dim * (dim - 1))
        batch = shell_batch(np.random.default_rng(dim), dim, radius, shell_chunk(dim))
        assert len(batch) == shell_chunk(dim)


def test_psd_bounds_leave_near_threshold_rows_to_the_eigensolve():
    # A bound settles a row only when it clears -SHELL_PSD_TOL by the
    # margin; a PSD row with a zero diagonal entry is never rejected.
    radius = 0.5  # beyond the N = 4 floor 1/sqrt(12)

    def bounds(lowest, scale):
        candidate = np.diag([lowest, 1 / 3, 1 / 3, 1 / 3 - lowest]).astype(np.complex128)
        accept, reject = states._psd_bounds(candidate[None], np.array([scale]), radius)
        return bool(accept[0]), bool(reject[0])

    assert bounds(0.0, 1.0) == (True, False)
    for lowest in (0.0, -SHELL_PSD_TOL, -SHELL_PSD_TOL - 0.5 * SHELL_BOUND_MARGIN):
        assert bounds(lowest, 1.5) == (False, False)
    assert bounds(-SHELL_PSD_TOL - 2 * SHELL_BOUND_MARGIN, 1.5) == (False, True)
    assert SHELL_BOUND_MARGIN >= 1e-13


@pytest.mark.parametrize("count", [1, 7, 50, 256])
def test_stacked_trace_and_norm_match_per_sample(count):
    # The shell sampler's byte identity rests on these stacked reductions
    # summing in the per-sample order; a numpy or BLAS build that changes
    # that order fails here by name.
    rng = np.random.default_rng(count)
    for dim in range(2, 26):
        x = (rng.standard_normal((count, dim, dim))
             + 1j * rng.standard_normal((count, dim, dim)))
        want_traces = np.array([np.trace(a).real for a in x])
        want_norms = np.array([np.linalg.norm(a) for a in x])
        assert states._stacked_traces(x).tobytes() == want_traces.tobytes(), dim
        assert states._stacked_norms(x).tobytes() == want_norms.tobytes(), dim


# --- distance identity (Werner family) ---------------------------------------

@pytest.mark.parametrize("d", [2, 3])
def test_werner_distance_identity_on_grid(d):
    total = d * d
    eye = maximally_mixed(total).matrix
    for p in np.linspace(0.0, 1.0, 20):
        got = hs_distance(werner(WernerParams(d, float(p))).matrix, eye)
        want = p * np.sqrt((total - 1) / total)
        assert abs(got - want) <= 1e-12
