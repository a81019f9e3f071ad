import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pptgeo import harness, states
from pptgeo.bipartite import BipartiteSplit, is_ppt, min_pt_eigenvalues
from pptgeo.harness import claim_check
from pptgeo.linalg import hs_distance
from pptgeo.states import (
    DensityMatrix,
    NotNormalized,
    PureState,
    WernerParams,
    max_entangled,
    maximally_mixed,
    sample_hs,
    shell_attempt,
    shell_chunk,
    shell_states,
    shell_uniforms,
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_pure_state_rejects_non_finite_amplitudes(bad):
    # A NaN norm passes the normalization check, so it needs its own.
    with pytest.raises(ValueError, match="amplitudes must be finite"):
        PureState(dim=2, amplitudes=np.array([bad, 0.0]))


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


def _projector(psi):
    return DensityMatrix(dim=psi.dim, matrix=np.outer(psi.amplitudes, psi.amplitudes.conj()))


def test_pure_density_basis_state():
    rho = _projector(PureState(dim=2, amplitudes=np.array([1.0, 0.0])))
    np.testing.assert_array_equal(rho.matrix, np.diag([1.0, 0.0]).astype(complex))


def test_pure_density_bell_corners():
    bell = PureState(dim=4, amplitudes=np.array([1, 0, 0, 1]) / np.sqrt(2))
    rho = _projector(bell).matrix
    assert rho[0, 0] == pytest.approx(0.5)
    assert rho[0, 3] == pytest.approx(0.5)
    assert rho[3, 0] == pytest.approx(0.5)
    assert rho[3, 3] == pytest.approx(0.5)


def test_pure_density_is_rank_one(rng):
    g = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    psi = PureState(dim=6, amplitudes=g / np.linalg.norm(g))
    rho = _projector(psi).matrix
    assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-12)


def test_werner_p0_is_maximally_mixed():
    np.testing.assert_allclose(
        werner(WernerParams(2, 0.0)).matrix, maximally_mixed(4).matrix, atol=1e-15
    )


def test_werner_p1_is_bell_projector():
    expected = _projector(max_entangled(2)).matrix
    np.testing.assert_allclose(werner(WernerParams(2, 1.0)).matrix, expected, atol=1e-15)


def test_werner_qubit_threshold_is_exact():
    # At p = 1/3 the PT floor of the 2x2 Werner family sits exactly at zero;
    # cross-checked against the closed form (1-p)/4 - p/2.
    state = werner(WernerParams(2, 1 / 3))
    check = is_ppt(state, BipartiteSplit(2, 2))
    assert check.min_pt_eigenvalue == pytest.approx(0.0, abs=1e-12)
    assert werner_min_pt_oracle(2, 1 / 3) == pytest.approx(0.0, abs=1e-16)


@given(p=st.floats(0.0, 1.0), seed=st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_convex_mix_stays_in_psd_cone(p, seed):
    a = sample_hs(np.random.default_rng(seed), 6)
    b = sample_hs(np.random.default_rng(seed + 1), 6)
    # construction re-validates all invariants
    mixed = DensityMatrix(dim=6, matrix=p * a.matrix + (1.0 - p) * b.matrix)
    assert np.linalg.eigvalsh(mixed.matrix)[0] >= -1e-9


# --- sampling ----------------------------------------------------------------

def test_sample_hs_unit_trace_and_psd():
    for seed in range(20):
        rho = sample_hs(np.random.default_rng(seed), 5)
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(rho.matrix)[0] >= -1e-12


def test_sample_hs_deterministic_for_fixed_seed():
    a = sample_hs(np.random.default_rng(42), 4)
    b = sample_hs(np.random.default_rng(42), 4)
    assert a.matrix.shape == (4, 4)
    np.testing.assert_array_equal(a.matrix, b.matrix)


def test_ginibre_shape_and_determinism():
    # The Ginibre draw is internal to sample_hs; a fixed seed fixes the state.
    a = sample_hs(np.random.default_rng(7), 3)
    b = sample_hs(np.random.default_rng(7), 3)
    assert a.matrix.shape == (3, 3)
    np.testing.assert_array_equal(a.matrix, b.matrix)


def test_sample_hs_purity_bounds():
    for seed in range(50):
        dim = 2 + seed % 5
        rho = sample_hs(np.random.default_rng(seed), dim).matrix
        purity = np.trace(rho @ rho).real
        assert 1 / dim - 1e-12 <= purity <= 1 + 1e-12


def test_gaussian_stream_moments():
    g = standard_normals(np.random.default_rng(0), 200_000)
    assert abs(g.mean()) < 0.01
    assert abs(g.std() - 1.0) < 0.01


# Inside the spectral floor 1/sqrt(N(N-1)) every shell attempt is accepted,
# so one attempt lands on the shell.

def test_shell_tiny_radius_always_accepted():
    rho = shell_attempt(np.random.default_rng(0), 4, 1e-6)
    d = hs_distance(rho.matrix, maximally_mixed(4).matrix)
    assert abs(d - 1e-6) <= 1e-12


def test_shell_hits_requested_radius():
    for seed, radius in [(0, 0.05), (1, 0.15), (2, 0.28)]:
        rho = shell_attempt(np.random.default_rng(seed), 4, radius)
        d = hs_distance(rho.matrix, maximally_mixed(4).matrix)
        assert abs(d - radius) <= 1e-12


def test_shell_deterministic():
    a = shell_attempt(np.random.default_rng(11), 9, 0.1)
    b = shell_attempt(np.random.default_rng(11), 9, 0.1)
    np.testing.assert_array_equal(a.matrix, b.matrix)


def test_shell_inside_guarantee_radius_is_ppt_any_split():
    # At N=4, r=0.28 the floor 1/N - r sqrt((N-1)/N) is still positive, so
    # every accepted sample is PPT under any split.
    assert 1 / 4 - 0.28 * np.sqrt(3 / 4) > 0
    split = BipartiteSplit(2, 2)
    for seed in range(50):
        rho = shell_attempt(np.random.default_rng(seed), 4, 0.28)
        assert is_ppt(rho, split).ppt


def test_shell_radius_domain():
    split = BipartiteSplit(2, 2)
    with pytest.raises(ValueError):
        harness.shell_scan(4, split, [0.9], samples_per_shell=10)  # beyond sqrt(3/4)
    with pytest.raises(ValueError):
        harness.shell_scan(4, split, [0.0], samples_per_shell=10)


def test_shell_acceptance_nonincreasing_report():
    # Statistical observation, reported rather than asserted: acceptance
    # falls with radius once shells extend beyond the PSD-guaranteed zone.
    rates = []
    for radius in (0.3, 0.5, 0.7):
        accepted = 0
        rng = np.random.default_rng(123)
        for _ in range(300):
            if shell_attempt(rng, 4, radius) is not None:
                accepted += 1
        rates.append(accepted / 300)
    print(f"shell acceptance by radius (N=4): {rates}")
    assert all(0.0 <= rate <= 1.0 for rate in rates)


# --- batched shell kernel vs the per-sample reference ---------------------

# Radii in units of the spectral floor 1/sqrt(N(N-1)).  The first lies
# inside the floor, where every row is a certified accept; the middle ones
# mix PPT and NPT samples and also reject some attempts; the last sits at
# 0.95 of the outer radius sqrt((N-1)/N) = (N-1) floors, where the
# single-precision screen drops most rows.  At N = 25, 4.9 floors lies at
# the typical HS distance of a random state, where s is near 1, and adds
# rows within the screen's margin of the PSD boundary, which the closed-form
# bounds leave to the certificate.
SHELL_CASES = {4: ((2, 2), (0.9, 1.5, 2.0, 2.85)), 6: ((2, 3), (0.9, 1.7, 2.2, 4.75)),
               8: ((2, 4), (0.9, 2.0, 2.6, 6.65)), 9: ((3, 3), (0.9, 2.2, 2.8, 7.6)),
               16: ((4, 4), (0.9, 2.2, 3.8, 14.25)), 25: ((5, 5), (0.9, 3.0, 4.9, 5.0, 22.8))}


def test_shell_chunk_budget():
    assert shell_chunk(4) == 1024
    assert shell_chunk(16) == 64
    assert shell_chunk(64) == 4


@pytest.mark.parametrize("dim", sorted(SHELL_CASES))
def test_shell_states_bit_identical_to_per_sample_reference(dim, monkeypatch):
    # Rows settled by each branch of the float64 PSD decision: certified
    # accept by the closed-form bounds, and left to the Cholesky certificate
    # and the eigen-solve.
    branches = np.zeros(2, dtype=int)
    bounds = states._psd_bounds

    def counted_bounds(dim, scale, radius):
        accept = bounds(dim, scale, radius)
        branches[:] += [accept.sum(), (~accept).sum()]
        return accept

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
            batch = shell_states(shell_uniforms(rng, dim, count), dim, radius)

            assert batch.shape == (len(expected), dim, dim)
            for got, want in zip(batch, expected):
                assert got.tobytes() == want.tobytes()
            floors = min_pt_eigenvalues(batch, split) if len(batch) else np.empty(0)
            want_floors = [reference_min_pt_eigenvalue(a, m, n) for a in expected]
            assert floors.tobytes() == np.array(want_floors, dtype=np.float64).tobytes()
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            if count == 1:
                rng = np.random.default_rng(seed)
                attempt = shell_attempt(rng, dim, radius)
                assert (None if attempt is None else attempt.matrix.tobytes()) == (
                    expected[0].tobytes() if expected else None)
                assert rng.bit_generator.state == ref_rng.bit_generator.state

            rejected += count - len(expected)
            npt += int(np.sum(floors < -1e-9))
            ppt += int(np.sum(floors >= -1e-9))
    assert rejected > 0 and npt > 0 and ppt > 0
    assert np.all(branches > 0), f"branch rows (accept, certificate): {branches}"


def test_shell_states_empty_and_negative_count(monkeypatch):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    for dim, radius in ((4, 0.2), (9, 0.9)):  # inside the floor and near the outer radius
        empty = shell_states(shell_uniforms(rng, dim, 0), dim, radius)
        assert empty.shape == (0, dim, dim) and empty.dtype == np.complex128
    assert rng.bit_generator.state == state

    def no_exact_path(*args, **kwargs):
        raise AssertionError("the float64 path ran on a fully screened chunk")

    # At 0.99 of the outer radius the screen drops this whole chunk, and
    # its tally is the floor it started from.
    monkeypatch.setattr(states, "_stacked_norms", no_exact_path)
    chunk = shell_chunk(16)
    tally = harness._chunk_tally(rng, chunk, BipartiteSplit(4, 4), 0.99 * np.sqrt(15 / 16), -0.5,
                                 states.ShellWork(16, chunk))
    assert tally == (0, 0, -0.5)
    with pytest.raises(ValueError, match="count must be >= 0, got -1"):
        shell_uniforms(rng, 4, -1)


class _Replay:
    """Stands in for a generator: hands out shell uniforms (k, 2, N^2) in
    stream order, as `reference_shell_attempt` draws them."""

    def __init__(self, u):
        self._draws = iter(u.reshape(-1, u.shape[-1]))

    def random(self, n):
        draw = next(self._draws)
        assert len(draw) == n
        return draw


def _screen(u, dim, radius):
    return states.shell_screen(u, dim, radius, states.ShellWork(dim, len(u)))


def _exact_rejects(u, dim, radius):
    replay = _Replay(u)
    return np.array([reference_shell_attempt(replay, dim, radius) is None for _ in range(len(u))])


def _uniforms_for(g):
    """Shell uniforms whose Box-Muller normals are the complex stack g."""
    flat = g.reshape(len(g), -1)
    return np.stack([-np.expm1(-np.abs(flat) ** 2 / 2), np.angle(flat) / (2 * np.pi) % 1.0], axis=1)


@pytest.mark.parametrize("dim", sorted(SHELL_CASES))
def test_screen_drops_only_exact_rejects(dim):
    # Every row the single-precision screen drops has a float64 candidate
    # whose smallest eigenvalue lies below -SHELL_PSD_TOL, and every row it
    # accepts one that does not, from half the spectral floor to 0.99 of the
    # outer radius; and it drops most of the rejects.
    count = 200
    floor, outer = 1 / np.sqrt(dim * (dim - 1)), np.sqrt((dim - 1) / dim)
    screened = rejects = 0
    for radius in np.linspace(0.5 * floor, 0.99 * outer, 8):
        u = np.random.default_rng([dim, int(radius * 1e6)]).random((count, 2, dim * dim))
        screen = _screen(u, dim, radius)
        exact = _exact_rejects(u, dim, radius)
        assert not np.any(screen.rejected & ~exact), f"screened an exact accept at r={radius}"
        assert not np.any(screen.accepted & exact), f"accepted an exact reject at r={radius}"
        screened += int(screen.rejected.sum())
        rejects += int(exact.sum())
    assert screened >= 0.99 * rejects, f"screened {screened} of {rejects} exact rejects"


def test_screen_on_constructed_rows():
    dim, radius = 4, 0.6
    rng = np.random.default_rng(5)
    # rho0 = P / (N - 1), P = I - |phi><phi| for the uniform unit vector phi:
    # an equal diagonal 1/N and lambda_min(rho0) = 0, so no bound on the
    # diagonal alone could certify these rows; the Cholesky certificate does.
    proj = np.eye(dim) - np.full((dim, dim), 1.0 / dim)
    unitaries = [np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))[0]
                 for _ in range(4)]
    u = _uniforms_for(np.stack([proj] + [proj @ v for v in unitaries]))
    assert _exact_rejects(u, dim, radius).all()
    assert _screen(u, dim, radius).rejected.all()

    # Diagonal rho0 = diag(p) on the shell where the candidate's smallest
    # eigenvalue 1/N - s (1/N - min p) is exactly 0: accepted, never
    # screened, and left to the float64 path.
    rows = 0
    while rows < 16:
        p = rng.dirichlet(np.ones(dim))
        edge = np.linalg.norm(p - 1.0 / dim) / (1.0 - dim * p.min())
        if not 1 / np.sqrt(dim * (dim - 1)) < edge < np.sqrt((dim - 1) / dim):
            continue
        u = _uniforms_for(np.diag(np.sqrt(p))[None])
        assert not _exact_rejects(u, dim, edge)[0]
        screen = _screen(u, dim, edge)
        assert not screen.rejected[0], f"screened a PSD boundary row, p={p}"
        assert not screen.accepted[0], f"settled a PSD boundary row, p={p}"
        rows += 1


def test_screened_candidates_lie_within_a_hundredth_of_the_margin():
    # The screen's verdicts rest on ||c' - c||_F, between a screened
    # candidate and its float64 one, lying far below SCREEN_MARGIN: by
    # Weyl's inequality it bounds how far the spectra of the candidate and
    # of its partial transpose move.
    worst = 0.0
    for dim in range(4, 37):
        outer = np.sqrt((dim - 1) / dim)
        for radius in np.linspace(0.5 / np.sqrt(dim * (dim - 1)), 0.99 * outer, 4):
            u = np.random.default_rng([dim, int(radius * 1e6)]).random((40, 2, dim * dim))
            exact, _ = states._float64_candidates(u, dim, radius)
            rho0, scale = states._float32_gram(u, dim, radius, states.ShellWork(dim, len(u)))
            states._shift_diagonal(rho0, -1.0 / dim)
            screened = states._to_shell(rho0, scale, dim)
            worst = max(worst, float(np.max(np.linalg.norm(screened - exact, axis=(1, 2)))))
    assert worst <= states.SCREEN_MARGIN / 100, worst


def test_staged_float32_gram_equals_one_built_from_fresh_arrays():
    # _float32_gram stages the float32 Box-Muller transform (the float64
    # radius rounded, float32 angle, cosine and sine) in the memory of reused
    # stacks; its rho0' and s' are those built from fresh arrays bit for
    # bit, whatever an earlier chunk left in the stacks (NaN here).
    for dim in (4, 9, 16):
        count, radius = 50, 0.3
        u = np.random.default_rng(dim).random((count, 2, dim * dim))
        work = states.ShellWork(dim, count + 7)
        for stack in (work.candidates, work.pt, work.scratch):
            stack.fill(np.nan)
        # The uniforms drawn into `work.scratch`, which the conjugate of G
        # overwrites once they are read.
        drawn = work.draw(np.random.default_rng(dim), count)
        assert drawn.tobytes() == u.tobytes()
        rho0, scale = states._float32_gram(drawn, dim, radius, work)
        length = np.sqrt(-2.0 * np.log(1.0 - u[:, 0])).astype(np.float32)
        angle = u[:, 1].astype(np.float32) * np.float32(2.0 * np.pi)
        g = np.empty((count, dim * dim), dtype=np.complex128)
        g.real, g.imag = length * np.cos(angle), length * np.sin(angle)
        g = g.reshape(count, dim, dim)
        w = g @ g.conj().transpose(0, 2, 1)
        trace = np.einsum("kii->k", w).real
        flat = w.reshape(count, -1).view(np.float64)
        want = radius / np.sqrt(np.einsum("ij,ij->i", flat, flat) / (trace * trace) - 1.0 / dim)
        assert rho0.tobytes() == (w / trace[:, None, None]).tobytes(), dim
        assert scale.tobytes() == want.tobytes(), dim


def test_redraw_gives_the_rows_of_the_last_draw():
    # A chunk's uniforms are overwritten by the screen; the open rows are
    # drawn again from the stream, bit for bit, and the stream the caller
    # goes on drawing from is untouched.
    dim, count = 9, 30
    rng = np.random.default_rng(3)
    rng.random(17)
    work = states.ShellWork(dim, count)
    for _ in range(2):  # a second chunk redraws from its own start
        state = rng.bit_generator.state
        first = work.draw(rng, count).copy()
        after = rng.bit_generator.state
        work.scratch.fill(np.nan)
        for rows in ([], [0], [4, 5, 29], list(range(count))):
            got = work.redraw(np.array(rows, dtype=np.intp))
            assert got.shape == (len(rows), 2, dim * dim)
            assert got.tobytes() == first[rows].tobytes()
        assert rng.bit_generator.state == after
        replay = np.random.default_rng()
        replay.bit_generator.state = state
        assert replay.random((count, 2, dim * dim)).tobytes() == first.tobytes()


def test_claim_check_screens_every_shell_chunk(monkeypatch):
    # Every radius takes one sampler path: each chunk of every claim-check
    # shell, all of them inside r_hs(N), goes through the screen first.
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
    radii = []
    shell_screen = harness.shell_screen

    def counted(u, dim, radius, work):
        radii.append(radius)
        return shell_screen(u, dim, radius, work)

    monkeypatch.setattr(harness, "shell_screen", counted)
    report = claim_check(3, samples=120)
    assert all(row.samples == 120 for row in report.shells.rows)
    assert len(radii) == 4 * -(-120 // shell_chunk(9))
    assert len(set(radii)) == 4


@pytest.mark.parametrize("d", [2, 3, 4])
def test_claim_check_sends_under_2_percent_of_rows_to_the_float64_path(monkeypatch, d):
    # Counted in this process, over the default 2,000 samples per shell: the
    # rows the screen leaves open, by its PSD, PPT or minimum test.
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
    sent = []
    shell_states = harness.shell_states

    def counted(u, dim, radius):
        sent.append(len(u))
        return shell_states(u, dim, radius)

    monkeypatch.setattr(harness, "shell_states", counted)
    report = claim_check(d, base_seed=1)
    rows = sum(row.samples for row in report.shells.rows)
    assert rows == 4 * harness.DEFAULT_SAMPLES_PER_SHELL
    assert 0 < sum(sent) < 0.02 * rows, f"{sum(sent)} of {rows} rows took the float64 path"


@pytest.mark.parametrize("count", [1, 7, 50])
def test_shell_shortcuts_match_complex_arithmetic(count):
    # shell_states divides by the trace, shifts by I/N and scales by s through
    # real views and the diagonal; each gives numpy's complex result bit for
    # bit on Gram stacks like the sampler's.
    rng = np.random.default_rng(count)
    for dim in range(2, 26):
        g = rng.standard_normal((count, dim, dim)) + 1j * rng.standard_normal((count, dim, dim))
        w = g @ g.conj().transpose(0, 2, 1)
        traces = states._stacked_traces(w)
        rho = w / traces[:, None, None]
        states._scale_rows(w, 1.0 / traces)
        assert w.tobytes() == rho.tobytes(), dim
        rho = (rho + rho.conj().transpose(0, 2, 1)) / 2
        eye = np.eye(dim, dtype=np.complex128) / dim
        scale = rng.uniform(0.5, 4.0, count)
        got = rho.copy()
        states._shift_diagonal(got, -1.0 / dim)
        assert got.tobytes() == (rho - eye).tobytes(), dim
        states._scale_rows(got, scale)
        states._shift_diagonal(got, 1.0 / dim)
        assert got.tobytes() == (eye + scale[:, None, None] * (rho - eye)).tobytes(), dim


def test_shell_states_inside_floor_runs_no_eigensolve(monkeypatch):
    def no_eigensolve(*args, **kwargs):
        raise AssertionError("eigen-solve inside the spectral floor")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolve)
    for dim in (4, 9, 16):
        radius = 0.999 / np.sqrt(dim * (dim - 1))
        u = shell_uniforms(np.random.default_rng(dim), dim, shell_chunk(dim))
        batch = shell_states(u, dim, radius)
        assert len(batch) == shell_chunk(dim)


def test_psd_bounds_leave_near_threshold_rows_to_the_eigensolve():
    # The bounds only accept: s <= 1, or any row inside the spectral floor.
    # Beyond the floor every row with s > 1 is left to the eigen-solve.
    scale = np.array([0.5, 1.0, 1.0 + 1e-15, 1.5])
    floor = 1 / np.sqrt(12)
    assert states._psd_bounds(4, scale, 0.5).tolist() == [True, True, False, False]
    assert states._psd_bounds(4, scale, floor).all()


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
