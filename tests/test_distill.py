import numpy as np
import pytest

from pptgeo.bipartite import BipartiteSplit, is_ppt, partial_transpose, schmidt
from pptgeo.distill import (
    DEFAULT_ITERS,
    WITNESS_TOL,
    _alternating_search,
    _start_subspaces,
    find_schmidt2_witness,
    witness_expectation,
)
from pptgeo.states import (
    WernerParams,
    max_entangled,
    maximally_mixed,
    pure_density,
    sample_hs_random,
    sample_on_shell,
    werner,
)

from conftest import reference_alternate, werner_min_pt_oracle


def test_bell_projector_witness():
    # In 2x2 every vector has Schmidt rank <= 2, so the search is exact and
    # hits the global PT minimum -1/2.
    result = find_schmidt2_witness(pure_density(max_entangled(2)), BipartiteSplit(2, 2))
    assert result.found
    assert result.value == pytest.approx(-0.5, abs=1e-12)
    assert result.restarts_used == 0
    assert result.witness is not None


def test_maximally_mixed_finds_nothing():
    result = find_schmidt2_witness(maximally_mixed(9), BipartiteSplit(3, 3),
                                   restarts=4, iters=10, seed=0)
    assert not result.found
    assert result.witness is None
    assert result.value == pytest.approx(1 / 9, abs=1e-12)


def test_werner_qutrit_witness_reaches_pt_floor():
    # The PT ground space of the d=3 Werner family is antisymmetric, hence
    # spanned by Schmidt-rank-2 vectors; the subspace search must reach the
    # global floor (1-p)/9 - p/3.
    state = werner(WernerParams(3, 0.30))
    split = BipartiteSplit(3, 3)
    result = find_schmidt2_witness(state, split, seed=7)
    floor = werner_min_pt_oracle(3, 0.30)
    assert result.found
    assert abs(result.value - floor) <= 1e-8
    assert result.restarts_used == 64


def test_found_witness_reverifies(rng):
    state = werner(WernerParams(3, 0.35))
    split = BipartiteSplit(3, 3)
    result = find_schmidt2_witness(state, split, restarts=8, seed=1)
    assert result.found
    recomputed = witness_expectation(state, split, result.witness)
    assert abs(recomputed - result.value) <= 1e-10
    assert schmidt(result.witness, split).rank <= 2


def test_value_never_undershoots_global_pt_floor():
    # Rayleigh quotients of compressions cannot go below the full spectrum.
    split = BipartiteSplit(3, 3)
    for seed in range(25):
        rho = sample_hs_random(9, seed=seed)
        floor = float(np.linalg.eigvalsh(partial_transpose(rho, split))[0])
        result = find_schmidt2_witness(rho, split, restarts=6, iters=15, seed=seed)
        assert result.value >= floor - 1e-10


def test_ppt_states_never_yield_witnesses():
    # PPT implies a nonnegative PT, so every expectation is nonnegative.
    split = BipartiteSplit(2, 2)
    checked = 0
    seed = 0
    while checked < 100:
        rho = sample_hs_random(4, seed=seed)
        seed += 1
        if not is_ppt(rho, split).ppt:
            continue
        checked += 1
        result = find_schmidt2_witness(rho, split, seed=seed)
        assert not result.found


def test_witness_search_deterministic():
    state = werner(WernerParams(3, 0.32))
    split = BipartiteSplit(3, 3)
    a = find_schmidt2_witness(state, split, restarts=6, seed=3)
    b = find_schmidt2_witness(state, split, restarts=6, seed=3)
    assert a.value == b.value
    np.testing.assert_array_equal(a.witness.amplitudes, b.witness.amplitudes)


def test_witness_search_validates_arguments():
    with pytest.raises(ValueError):
        find_schmidt2_witness(maximally_mixed(4), BipartiteSplit(2, 2), restarts=0)


def test_witness_search_rejects_zero_iters():
    with pytest.raises(ValueError, match="restarts and iters must be >= 1"):
        find_schmidt2_witness(maximally_mixed(9), BipartiteSplit(3, 3), iters=0)


def _parity_states():
    """(label, m, n, state): HS-random NPT and floor-shell PPT states at every
    split, plus Werner states on both sides of p = 1/(d+1) at square splits."""
    cases = []
    for m, n in [(3, 3), (3, 4), (4, 3), (4, 4), (3, 5)]:
        dim = m * n
        cases.append(("hs", m, n, sample_hs_random(dim, seed=10 * m + n)))
        floor = 1 / np.sqrt(dim * (dim - 1))
        cases.append(("floor", m, n, sample_on_shell(dim, radius=0.999 * floor, seed=m + n)))
        if m == n:
            cases.append(("werner_ppt", m, n, werner(WernerParams(m, 0.5 / (m + 1)))))
            cases.append(("werner_npt", m, n, werner(WernerParams(m, 2 / (m + 1)))))
    return cases


@pytest.mark.parametrize("iters", [1, DEFAULT_ITERS])
@pytest.mark.parametrize("label, m, n, state", _parity_states(),
                         ids=lambda v: v if isinstance(v, (str, int)) else "state")
def test_batched_search_matches_per_restart_reference(label, m, n, state, iters):
    split = BipartiteSplit(m, n)
    assert is_ppt(state, split).ppt == (label in ("floor", "werner_ppt"))
    sigma = partial_transpose(state, split)
    sigma = (sigma + sigma.conj().T) / 2
    restarts, seed = 8, 5
    values, vecs = _alternating_search(sigma, m, n, _start_subspaces(seed, restarts, m), iters)
    reference = [reference_alternate(sigma, m, n, np.random.default_rng(seed + k), iters)
                 for k in range(restarts)]
    ref_values = np.array([value for value, _, _ in reference])
    # A restart that stopped on its own test, or after the single step of
    # iters=1, matches to round-off.  Restarts the 50-step cap cuts while
    # their value still moves are held to 1e-9.
    settled = np.array([converged or iters == 1 for _, _, converged in reference])
    np.testing.assert_allclose(values[settled], ref_values[settled], rtol=0, atol=1e-12)
    np.testing.assert_allclose(values, ref_values, rtol=0, atol=1e-9)
    assert np.all(values >= np.linalg.eigvalsh(sigma)[0] - 1e-12)
    # each returned vector is its restart's candidate: its Rayleigh quotient is the value
    quotients = (np.einsum("ri,ij,rj->r", vecs.conj(), sigma, vecs).real
                 / np.sum(abs(vecs) ** 2, axis=1))
    np.testing.assert_allclose(quotients, values, rtol=0, atol=1e-12)

    result = find_schmidt2_witness(state, split, restarts=restarts, iters=iters, seed=seed)
    assert result.found == (ref_values.min() < -WITNESS_TOL)
    assert result.restarts_used == restarts
    assert result.value == values.min()


@pytest.mark.parametrize("label, m, n, state",
                         [c for c in _parity_states() if c[0] in ("hs", "floor")
                          and (c[1], c[2]) in ((3, 3), (3, 4), (3, 5))],
                         ids=lambda v: v if isinstance(v, (str, int)) else "state")
def test_refit_never_raises_a_restarts_value(label, m, n, state):
    # B is refit to the support of the ground vector on its factor, so each
    # step keeps the previous candidate inside its compressions and no
    # restart's value rises.  A run capped at k steps is the first k steps
    # of a longer one, so the values after 1, 2, ... steps are the runs
    # with iters = 1, 2, ...
    split = BipartiteSplit(m, n)
    sigma = partial_transpose(state, split)
    sigma = (sigma + sigma.conj().T) / 2
    assert np.abs(sigma.imag).max() > 0.0
    starts = _start_subspaces(3, 8, m)
    prev = np.full(8, np.inf)
    for iters in range(1, 31):
        values, _ = _alternating_search(sigma, m, n, starts, iters)
        assert np.all(values <= prev + 1e-12), iters
        prev = values


def test_hs_3x4_parity_state_finds_witness():
    # An HS-random NPT state on which the conjugated B refit found no
    # witness with these restarts (best value +3.8e-4).
    state = sample_hs_random(12, seed=34)
    result = find_schmidt2_witness(state, BipartiteSplit(3, 4), restarts=8, seed=5)
    assert result.found
    assert result.value < -0.05


def test_geometric_corollary_reported():
    # Shells inside the spectral-floor radius cannot carry witnesses; at the
    # two claimed radii the outcome is reported, not asserted, since the
    # claimed balls admit NPT states at 3x3.
    from pptgeo.bounds import bounds_table
    from pptgeo.states import sample_on_shell

    split = BipartiteSplit(3, 3)
    table = bounds_table(3)
    guaranteed = 1 / np.sqrt(9 * 8)
    for seed in range(10):
        rho = sample_on_shell(9, radius=guaranteed * 0.99, seed=seed)
        assert not find_schmidt2_witness(rho, split, restarts=4, iters=10, seed=seed).found

    found_at = {}
    for label, radius in [("separable", table.separable_radius),
                          ("ppt_claim", table.ppt_radius)]:
        hits = 0
        for seed in range(10):
            rho = sample_on_shell(9, radius=radius, seed=100 + seed)
            hits += int(find_schmidt2_witness(rho, split, restarts=4, iters=10,
                                              seed=seed).found)
        found_at[label] = hits
    print(f"witnesses found at claimed radii (of 10 shell samples): {found_at}")
