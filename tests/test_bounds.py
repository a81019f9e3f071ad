import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pptgeo.bipartite import BipartiteSplit, is_ppt
from pptgeo.bounds import (
    UnsupportedDim,
    Zone,
    ball_radius,
    bounds_table,
    classify,
    ppt_radius,
    separable_radius,
    werner_distance,
    werner_pm,
)
from pptgeo.linalg import hs_distance
from pptgeo.states import (
    DensityMatrix,
    WernerParams,
    maximally_mixed,
    sample_hs,
    shell_attempt,
    werner,
)

from conftest import werner_min_pt_oracle


# --- radii -------------------------------------------------------------------

def test_ball_radius_values():
    assert ball_radius(2) == pytest.approx(1 / math.sqrt(2), abs=1e-15)
    assert ball_radius(4) == pytest.approx(0.8660254037844386, abs=1e-15)


@given(n=st.integers(2, 500))
@settings(max_examples=40, deadline=None)
def test_ball_radius_monotone_below_one(n):
    assert ball_radius(n) < ball_radius(n + 1) < 1.0


def test_separable_radius_values():
    assert separable_radius(2, 2) == pytest.approx(1 / math.sqrt(12), abs=1e-15)
    assert separable_radius(3, 2) == pytest.approx(0.23570226039551584, abs=1e-15)


@given(d=st.integers(2, 6), n=st.integers(2, 4))
@settings(max_examples=30, deadline=None)
def test_separable_radius_inside_ball(d, n):
    assert separable_radius(d, n) < ball_radius(d**n)


def test_ppt_radius_values():
    assert ppt_radius(4) == pytest.approx(1 / math.sqrt(12), abs=1e-15)
    assert ppt_radius(9) == pytest.approx(0.32469446904545857, abs=1e-15)
    assert ppt_radius(16) == pytest.approx(0.24624318171075574, abs=1e-15)


def test_ppt_radius_rejects_small_dims():
    with pytest.raises(UnsupportedDim):
        ppt_radius(3)


def test_werner_pm_values():
    assert werner_pm(4) == pytest.approx(1 / 3, abs=1e-15)
    assert werner_pm(9) == pytest.approx(0.3443904913137139, abs=1e-15)
    with pytest.raises(UnsupportedDim):
        werner_pm(2)


@pytest.mark.parametrize("total", [9, 16, 25, 36])
def test_werner_pm_times_ball_radius_is_ppt_radius(total):
    assert werner_pm(total) * ball_radius(total) == pytest.approx(
        ppt_radius(total), abs=1e-15
    )


def test_werner_distance_values():
    assert werner_distance(0.0, 9) == 0.0
    assert werner_distance(1 / 3, 4) == pytest.approx(1 / math.sqrt(12), abs=1e-15)


def test_werner_distance_matches_numeric():
    for d, p in [(2, 0.3), (3, 0.7)]:
        state = werner(WernerParams(d, p))
        got = hs_distance(state.matrix, maximally_mixed(d * d).matrix)
        assert abs(got - werner_distance(p, d * d)) <= 1e-12


@pytest.mark.parametrize("total", [4, 9, 16, 25])
def test_werner_distance_at_pm_equals_ppt_radius(total):
    assert abs(werner_distance(werner_pm(total), total) - ppt_radius(total)) <= 1e-12


# --- bounds table ------------------------------------------------------------

def test_bounds_table_qubits():
    t = bounds_table(2)
    assert t.total_dim == 4
    assert t.outer_radius == pytest.approx(0.8660254037844386, abs=1e-15)
    assert t.separable_radius == pytest.approx(0.2886751345948129, abs=1e-15)
    assert t.ppt_radius == pytest.approx(0.2886751345948129, abs=1e-15)
    assert t.werner_pm == pytest.approx(1 / 3, abs=1e-15)


def test_bounds_table_qutrits():
    t = bounds_table(3)
    assert t.outer_radius == pytest.approx(0.9428090415820634, abs=1e-15)
    assert t.separable_radius == pytest.approx(0.23570226039551584, abs=1e-15)
    assert t.ppt_radius == pytest.approx(0.32469446904545857, abs=1e-15)
    assert t.werner_pm == pytest.approx(0.3443904913137139, abs=1e-15)
    # for qutrit pairs the claimed PPT ball strictly contains the separable ball
    assert t.separable_radius < t.ppt_radius


def test_bounds_table_is_bipartite_only():
    with pytest.raises(UnsupportedDim):
        bounds_table(2, parties=3)


# --- classification ----------------------------------------------------------

def test_classify_maximally_mixed_3x3():
    result = classify(maximally_mixed(9), BipartiteSplit(3, 3), bounds_table(3))
    assert result.zone is Zone.SEPARABLE_BALL
    assert result.numeric_ppt
    assert not result.contradiction_flag
    assert result.distance == pytest.approx(0.0, abs=1e-15)


def test_classify_werner_half_outside():
    result = classify(werner(WernerParams(2, 0.5)), BipartiteSplit(2, 2), bounds_table(2))
    assert result.zone is Zone.OUTSIDE_BALLS
    assert not result.numeric_ppt
    assert not result.contradiction_flag
    assert result.distance == pytest.approx(0.4330127018922193, abs=1e-12)
    assert result.min_pt_eigenvalue == pytest.approx(-0.125, abs=1e-12)


def test_classify_werner_026_contradicts_claimed_ball():
    # werner(3, 0.26) sits inside the claimed PPT ball yet is NPT; this is
    # the designed falsification probe of the claimed N>4 radius.
    result = classify(werner(WernerParams(3, 0.26)), BipartiteSplit(3, 3), bounds_table(3))
    assert result.zone is Zone.PPT_BALL_CLAIM
    assert not result.numeric_ppt
    assert result.contradiction_flag
    assert result.min_pt_eigenvalue == pytest.approx(werner_min_pt_oracle(3, 0.26), abs=1e-12)


def test_classify_zone_ties_resolve_inward():
    # A Werner state at exactly the separable radius: distance == r_sep.
    table = bounds_table(2)
    p = table.separable_radius / ball_radius(4)
    result = classify(werner(WernerParams(2, p)), BipartiteSplit(2, 2), table)
    assert result.zone is Zone.SEPARABLE_BALL


def test_classify_never_contradicts_at_n4():
    # Within 1/sqrt(12) of I/4 positivity of the PT is analytically
    # guaranteed, so no HS-random qubit pair can raise the flag.
    table = bounds_table(2)
    split = BipartiteSplit(2, 2)
    flagged = 0
    for seed in range(10_000):
        result = classify(sample_hs(np.random.default_rng(seed), 4), split, table)
        flagged += int(result.contradiction_flag)
    assert flagged == 0


def test_ppt_guaranteed_inside_spectral_floor_radius():
    # Radius 1/sqrt(N(N-1)) keeps the PT floor nonnegative for any state;
    # shells at that radius must be PPT without exception.
    n = 9
    guaranteed = 1 / math.sqrt(n * (n - 1))
    split = BipartiteSplit(3, 3)
    for seed in range(200):
        rho = shell_attempt(np.random.default_rng(seed), n, guaranteed * 0.999)
        assert is_ppt(rho, split).ppt


def test_claimed_separable_ball_at_3x3_contains_npt_states():
    # Deterministic counterexample: mix a two-level maximally entangled
    # projector into I/9.  Its PT floor -q/2 + (1-q)/9 crosses zero at
    # q = 2/11, i.e. at distance (2/11) sqrt(8/9) ~ 0.171, well inside the
    # claimed separable radius 0.2357 for qutrit pairs.  The claimed radius
    # is therefore unsound at 3x3; only the smaller spectral-floor radius
    # is safe.
    table = bounds_table(3)
    amp = np.zeros(9, dtype=complex)
    amp[0] = amp[4] = 1 / np.sqrt(2)  # (|00> + |11>)/sqrt(2) embedded in 3x3
    bell2 = np.outer(amp, amp.conj())
    q = 0.21
    rho = DensityMatrix(dim=9, matrix=q * bell2 + (1 - q) * np.eye(9) / 9)
    dist = hs_distance(rho.matrix, maximally_mixed(9).matrix)
    check = is_ppt(rho, BipartiteSplit(3, 3))
    assert dist < table.separable_radius
    assert not check.ppt
    assert check.min_pt_eigenvalue == pytest.approx(-q / 2 + (1 - q) / 9, abs=1e-12)
