"""Claim-verification harness: Werner sweeps, shell scans, spectrum checks.

Every report is deterministic given its base seed: shell i of a scan draws
from base_seed + i, and each part of a shell from that stream advanced to its
first sample, whether it runs in this process or in a helper process forked
once and kept for later scans (helpers run the code as loaded when forked).
A shell's PSD and PPT verdicts and its lowest PT eigenvalue come from
Cholesky certificates on single-precision candidates, and only the rows
those leave open are built in float64 and certified or eigen-solved there,
so the tallies are those of eigen-solving every float64 row, bit for bit.
Claim checks never hard-fail on a refuted radius claim: the verdict plus
the serialized Werner-probe state that refutes it is the output, so a
correct run stays green even when the claim under test is not.
"""

from __future__ import annotations

import datetime
import functools
import json
import os
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import serialize
from .bipartite import (
    PPT_TOL,
    BipartiteSplit,
    min_pt_eigenvalues,
    partial_transpose,
    pt_spectrum_analytic,
    pure_pt_spectra,
    schmidt,
)
from .bounds import BoundsTable, ball_radius, bounds_table, werner_pm
from .linalg import as_hermitian, cholesky_margin, cholesky_passes, hs_distance
from .states import (
    SCREEN_MARGIN,
    DensityMatrix,
    PureState,
    ShellWork,
    WernerParams,
    shell_chunk,
    shell_screen,
    shell_states,
    standard_normals,
    werner,
    werner_matrix,
)
from .workers import pool_map

VERDICT_CONSISTENT = "CONSISTENT"
VERDICT_COUNTEREXAMPLE = "COUNTEREXAMPLE_FOUND"

SPECTRUM_TOL = 1e-9
CLAIM_SHELL_SCALES = (0.5, 0.9, 0.99, 1.0)
DEFAULT_SAMPLES_PER_SHELL = 2000
MAX_SAMPLES_PER_SHELL = 10**6  # bounds the cost of re-verifying a claim report
# From this total dimension on, a shell is scanned as one part, in this
# process: there OpenBLAS threads its kernels, and helpers that run their own
# thread pools on the same CPUs slow a scan many-fold.  Measured on 2 CPUs,
# 1,000 samples at 0.97 r_hs(N): at N = 40 two parts took 0.09-0.14 s and one
# 0.14-0.21 s; at N = 42 two parts took 0.23-8.5 s and one 0.16-0.25 s.  (No
# split has N = 41.)
ONE_PART_DIM = 42


def bisect_decreasing(f: Callable[[float], float], lo: float, hi: float,
                      tol: float = 1e-10) -> float:
    """Root of a decreasing function by bisection; the sign bracket
    f(lo) > 0 > f(hi) is asserted at every step.

    Stops once the bracket is at most `tol` wide, or once it holds no float
    between its ends (so a `tol` of 0 or below the float spacing ends too).
    """
    flo, fhi = f(lo), f(hi)
    if not (flo > 0.0 > fhi):
        raise ValueError(f"endpoints do not bracket a root: f({lo})={flo}, f({hi})={fhi}")
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if mid in (lo, hi):
            break
        fmid = f(mid)
        if fmid > 0.0:
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
        assert flo > 0.0 >= fhi
    return (lo + hi) / 2


class SweepRow(NamedTuple):
    p: float
    distance: float
    min_pt_eig: float
    ppt: bool


@dataclass(frozen=True)
class SweepReport:
    """Werner family sweep: distances and PT floors over a mixing grid.

    p_star is the numeric PPT threshold (bisection root of the minimum PT
    eigenvalue); paper_pm the claimed threshold for this dimension;
    oracle_pm the analytic root 1/(d+1).
    """

    qudit_dim: int
    rows: tuple[SweepRow, ...]
    p_star: float
    paper_pm: float
    oracle_pm: float


def _werner_floor(d: int, p: float) -> tuple[np.ndarray, float]:
    """The matrix `werner(WernerParams(d, p))` stores, built without validating
    it as a state, and its smallest partial-transpose eigenvalue."""
    matrix = as_hermitian(werner_matrix(WernerParams(d, p)))
    return matrix, float(min_pt_eigenvalues(matrix[None], BipartiteSplit(d, d))[0])


def _werner_point(d: int, p: float) -> tuple[float, float]:
    """(HS distance from I/N, smallest PT eigenvalue) of the d (x) d Werner
    state at mixing p: the values `hs_distance` and `is_ppt` give for
    `werner(WernerParams(d, p))`, bit for bit."""
    matrix, floor = _werner_floor(d, p)
    return hs_distance(matrix, np.eye(d * d) / (d * d)), floor


def werner_sweep(qudit_dim: int, grid_points: int = 21) -> SweepReport:
    """Sweep the Werner family of a d (x) d system over a mixing grid."""
    d = qudit_dim
    if not 2 <= d <= 8:
        raise ValueError(f"qudit_dim must lie in 2..8, got {d}")
    if grid_points < 2:
        raise ValueError(f"grid_points must be >= 2, got {grid_points}")
    rows = []
    for p in np.linspace(0.0, 1.0, grid_points):
        distance, floor = _werner_point(d, float(p))
        rows.append(SweepRow(p=float(p), distance=distance, min_pt_eig=floor, ppt=floor >= -PPT_TOL))

    p_star = bisect_decreasing(lambda p: _werner_floor(d, p)[1], 0.0, 1.0)
    return SweepReport(
        qudit_dim=d,
        rows=tuple(rows),
        p_star=p_star,
        paper_pm=werner_pm(d * d),
        oracle_pm=1.0 / (d + 1),
    )


class ShellRow(NamedTuple):
    radius: float
    samples: int
    accepted: int
    ppt_count: int
    ppt_fraction: float
    min_pt_eig: float  # nan when no sample was accepted


@dataclass(frozen=True, eq=False)
class ShellReport:
    """PPT statistics on HS-distance shells around I/N, one row per radius;
    shell i draws from base_seed + i."""

    split: BipartiteSplit
    rows: tuple[ShellRow, ...]
    samples_per_shell: int
    base_seed: int


def _merge(a: tuple, b: tuple) -> tuple:
    """Tallies (accepted, ppt_count, min PT floor) of sample ranges a and b."""
    return a[0] + b[0], a[1] + b[1], min(a[2], b[2])


def _scan_part(total_dim: int, split: BipartiteSplit, radius: float, seed: int,
               first: int, stop: int) -> tuple:
    """Samples [first, stop) of one `shell_scan` shell, drawn chunk by chunk
    (`shell_chunk` samples each, the last one ragged) from default_rng(seed)
    advanced past the 2 N^2 uniforms (one PCG64 step each) of every earlier
    sample.  One `ShellWork`, sized for a chunk, stages every chunk's
    uniforms and screen stacks, so the part allocates them once.

    Returns their tally (see _merge, _chunk_tally): the minimum is inf when
    no sample was accepted.
    """
    rng = np.random.default_rng(seed)
    rng.bit_generator.advance(first * 2 * total_dim**2)
    chunk = shell_chunk(total_dim)
    work = ShellWork(total_dim, min(chunk, stop - first))
    tally = (0, 0, np.inf)
    for start in range(first, stop, chunk):
        tally = _merge(tally, _chunk_tally(rng, min(chunk, stop - start), split, radius, tally[2], work))
    return tally


def _chunk_tally(rng: np.random.Generator, count: int, split: BipartiteSplit, radius: float,
                 floor: float, work: ShellWork) -> tuple:
    """Tally (see _merge) of the next `count` shell attempts drawn from rng,
    which follow samples whose lowest PT floor is `floor`: the tally of
    eigen-solving every accepted state's partial transpose, bit for bit.

    The single-precision screen (`shell_screen`) settles each attempt's PSD
    verdict or leaves it open, and `_pt_tally` what it can of the accepted
    ones.  Their candidates lie within SCREEN_MARGIN / 100 of the float64
    states in HS norm, and so do their partial transposes (an HS isometry),
    so the tally's margin is SCREEN_MARGIN + `cholesky_margin(N)`.  The
    attempts left open take the float64 path (`shell_states`,
    `_exact_tally`) in one call.  The uniforms, the screen and the PT tally
    are staged in `work` (see `ShellWork`), which redraws the uniforms of
    the open attempts; the float64 path's stacks are small and its own.
    """
    screen = shell_screen(work.draw(rng, count), split.dim, radius, work)
    if screen.rejected.all():
        return 0, 0, floor
    pt = partial_transpose(screen.candidates, split, out=work.pt[:len(screen.candidates)])
    ppt, unsettled = _pt_tally(pt, radius, floor, SCREEN_MARGIN + cholesky_margin(split.dim), work.scratch)
    exact = ~(screen.rejected | screen.accepted)
    exact[np.flatnonzero(screen.accepted)[unsettled]] = True
    tally = (int(np.count_nonzero(~unsettled)), int(np.count_nonzero(ppt & ~unsettled)), floor)
    open_rows = np.flatnonzero(exact)
    if not open_rows.size:
        return tally
    return _merge(tally, _exact_tally(shell_states(work.redraw(open_rows), split.dim, radius),
                                      split, radius, floor))


def _pt_tally(pt: np.ndarray, radius: float, floor: float, margin: float,
              scratch: np.ndarray | None = None) -> tuple:
    """(ppt, unsettled): bools per row of a stack of partial transposes
    whose states follow samples with lowest PT floor `floor`: PPT by a
    Cholesky certificate (`cholesky_passes`, factoring in `scratch`), and
    left open by either test below.  `margin` is `cholesky_margin(N)` plus
    how far, in HS norm, a row may lie from the float64 PT whose verdict
    and floor count (by Weyl's inequality, each eigenvalue lies as close):

    - PPT verdict: PPT when it passes at -PPT_TOL + margin, NPT when it
      fails at -PPT_TOL - margin; otherwise open.
    - Minimum: a row that passes at `floor` + margin has a floor above
      `floor`.  Of the others (only the non-PPT ones once a row is NPT or
      `floor` is below -PPT_TOL, since every PPT floor lies above an NPT
      one), some fails at the shift `top` that `_likely_lowest` returns, so
      some floor lies below top + margin; a row that passes at
      min(floor, top + margin) + margin cannot be the lowest.

    The PTs lie at HS distance `radius` from I/N, so no PT floor lies below
    1/N - radius sqrt((N-1)/N), where the bisection for the lowest starts."""
    dim = pt.shape[-1]
    passes = functools.partial(cholesky_passes, pt, out=scratch)
    # The first test runs on every row, so it takes the side that most rows
    # lie on: the NPT side once the shell holds an NPT row.
    ppt, npt = np.zeros(len(pt), dtype=bool), np.zeros(len(pt), dtype=bool)
    if floor < -PPT_TOL:
        npt[:] = ~passes(-PPT_TOL - margin)
        rest = np.flatnonzero(~npt)
        ppt[rest] = passes(margin - PPT_TOL, rest)
    else:
        ppt[:] = passes(margin - PPT_TOL)
        rest = np.flatnonzero(~ppt)
        npt[rest] = ~passes(-PPT_TOL - margin, rest)
    unsettled = ~(ppt | npt)
    rows = np.flatnonzero(~ppt) if floor < -PPT_TOL or npt.any() else np.arange(len(pt))
    if floor < np.inf:
        rows = rows[~passes(floor + margin, rows)]
    if rows.size:
        # No PT floor exceeds 1/N, the mean of a unit-trace spectrum.
        top = _likely_lowest(pt, rows, min(floor, 1.0 / dim) + margin, margin, scratch,
                             1.0 / dim - radius * np.sqrt((dim - 1) / dim) - margin)
        unsettled[rows[~passes(min(floor, top + margin) + margin, rows)]] = True
    return ppt, unsettled


def _exact_tally(states: np.ndarray, split: BipartiteSplit, radius: float, floor: float) -> tuple:
    """Tally (see _merge) of a stack of accepted states at HS distance
    `radius` from I/N that follows samples whose lowest PT floor is
    `floor`: that of eigen-solving every row's partial transpose, bit for
    bit.  `_pt_tally` at `cholesky_margin(N)` settles what it can, and the
    rows it leaves open take one stacked eigen-solve, which gives their
    verdicts and holds the lowest floor below `floor`, if any."""
    pt = partial_transpose(states, split)
    ppt, unsettled = _pt_tally(pt, radius, floor, cholesky_margin(split.dim))
    if unsettled.any():
        floors = np.linalg.eigvalsh(pt[unsettled])[:, 0]
        ppt[unsettled] = floors >= -PPT_TOL
        floor = min(floor, float(floors.min()))
    return len(pt), int(np.count_nonzero(ppt)), floor


def _likely_lowest(pt: np.ndarray, rows: np.ndarray, top: float, margin: float,
                   scratch: np.ndarray | None, bottom: float) -> float:
    """A shift at which some row among `rows` of the PT stack fails to
    factor (in `scratch`, see `cholesky_passes`), bracketing the lowest PT
    floor: bisect a shift between `bottom`, below every PT floor, and `top`
    (at which every row fails), keeping the rows that fail there whenever
    any does, until one row is left or the bracket is 4 margins wide.  A
    `bottom` too high costs steps, not correctness.

    Of more than 64 rows, a sample of about 32 is bisected first, and only
    the rows that fail at the shift it ends at are bisected on: on a first
    chunk at N = 4 that factors each row 1.2 times rather than 2.6.
    """
    if rows.size > 64:
        top = _likely_lowest(pt, rows[::rows.size // 32], top, margin, scratch, bottom)
        rows = rows[~cholesky_passes(pt, top, rows, scratch)]
    while rows.size > 1 and top - bottom > 4 * margin:
        shift = (bottom + top) / 2
        failing = rows[~cholesky_passes(pt, shift, rows, scratch)]
        if failing.size:
            rows, top = failing, shift
        else:
            bottom = shift
    return top


def _usable_cpus() -> int:
    """CPUs this process may run on (1 where the platform cannot tell)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def shell_scan(total_dim: int, split: BipartiteSplit, radii, samples_per_shell: int = DEFAULT_SAMPLES_PER_SHELL,
               base_seed: int = 0) -> ShellReport:
    """Sample each shell and record acceptance and PPT statistics.

    Shell i draws from default_rng(base_seed + i) alone.  Each shell is cut
    into k = min(usable CPUs, chunks) contiguous parts of equal sample count,
    part j taking samples [j S // k, (j + 1) S // k) of S, so parts differ
    by at most one sample however the chunks fall; from ONE_PART_DIM on,
    k = 1.  Part j of every shell runs in helper j (`pool_map`; part 0
    here), and the parts merge in sample order, so the report is the same
    byte for byte for any k.  Unreachable shells (every attempt rejected)
    surface as accepted = 0 rather than an error.  `base_seed` must be an
    integer >= 0.
    """
    split.check_dim(total_dim)
    radii = [float(r) for r in radii]
    outer = ball_radius(total_dim)
    if not radii:
        raise ValueError("radii must not be empty")
    if any(r2 <= r1 for r1, r2 in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly ascending")
    if any(not 0.0 < r < outer for r in radii):
        raise ValueError(f"radii must lie in (0, {outer:.6f})")
    serialize.check_int("samples_per_shell", samples_per_shell)
    if samples_per_shell < 1:
        raise ValueError("samples_per_shell must be >= 1")
    serialize.check_seed(base_seed)

    samples = int(samples_per_shell)
    chunks = -(-samples // shell_chunk(total_dim))
    k = 1 if total_dim >= ONE_PART_DIM else min(_usable_cpus(), chunks)
    cuts = [j * samples // k for j in range(k + 1)]
    parts = pool_map(_scan_part, [[(total_dim, split, radius, base_seed + index, first, stop)
                                   for index, radius in enumerate(radii)]
                                  for first, stop in zip(cuts, cuts[1:])])
    rows = []
    for index, radius in enumerate(radii):
        accepted, ppt_count, min_pt = functools.reduce(_merge, [part[index] for part in parts])
        rows.append(ShellRow(radius, samples, accepted, ppt_count,
                             (ppt_count / accepted) if accepted else 0.0,
                             min_pt if accepted else float("nan")))
    return ShellReport(split=split, rows=tuple(rows), samples_per_shell=samples, base_seed=base_seed)


def sample_pure(rng: np.random.Generator, dim: int) -> PureState:
    """Random pure state: normalized vector of standard complex Gaussians."""
    g = standard_normals(rng, 2 * dim)
    amp = g[:dim] + 1j * g[dim:]
    return PureState(dim=dim, amplitudes=amp / np.linalg.norm(amp))


class SpectrumCheck(NamedTuple):
    max_deviation: float
    passed: bool


def spectrum_check(split: BipartiteSplit, trials: int, seed: int) -> SpectrumCheck:
    """Compare closed-form and numeric PT spectra of random pure states.

    For each of `trials` states drawn from default_rng(seed), the sorted
    analytic spectrum (including zero multiplicities) must match the
    eigensolver output of the explicit partial transpose to SPECTRUM_TOL
    max-abs.  All states are drawn first, then their partial transposes are
    solved as one stack.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    psis = [sample_pure(rng, split.dim) for _ in range(trials)]
    analytic = np.stack([pt_spectrum_analytic(schmidt(psi, split), split) for psi in psis])
    numeric = pure_pt_spectra(np.stack([psi.amplitudes for psi in psis]), split)
    worst = float(np.max(np.abs(analytic - numeric)))
    return SpectrumCheck(max_deviation=worst, passed=worst <= SPECTRUM_TOL)


class WernerProbe(NamedTuple):
    p: float
    distance: float
    min_pt_eig: float


@dataclass(frozen=True, eq=False)
class Counterexample:
    """A d (x) d state inside the claimed PPT ball whose partial transpose is
    negative."""

    source: str  # "werner-probe"
    state: DensityMatrix
    distance: float
    min_pt_eig: float


@dataclass(frozen=True, eq=False)
class ClaimCheckReport:
    """Per-dimension adjudication of the claimed PPT-ball radius.

    verdict is COUNTEREXAMPLE_FOUND exactly when there is a counterexample:
    the Werner probe's state, when it refutes the claim (`_refutes`).
    """

    qudit_dim: int
    table: BoundsTable
    sweep: SweepReport
    shells: ShellReport
    probe: WernerProbe | None
    spectrum: SpectrumCheck
    counterexample: Counterexample | None
    base_seed: int

    @property
    def verdict(self) -> str:
        return VERDICT_CONSISTENT if self.counterexample is None else VERDICT_COUNTEREXAMPLE


def _refutes(distance: float, floor: float, claimed: float) -> bool:
    """Whether a state at HS `distance` from I/N whose smallest PT eigenvalue
    is `floor` refutes the claim that every state within `claimed` is PPT.
    The 1e-12 absorbs the rounding of a computed distance."""
    return distance <= claimed + 1e-12 and floor < -PPT_TOL


def claim_check(qudit_dim: int, samples: int = DEFAULT_SAMPLES_PER_SHELL,
                base_seed: int = 0) -> ClaimCheckReport:
    """Adjudicate the claimed PPT radius for a d (x) d system.

    The verdict is the deterministic Werner probe's, at the midpoint
    between the numeric and claimed thresholds.  The shell scan at
    {0.5, 0.9, 0.99, 1.0} of the claimed radius is the Monte Carlo
    corroboration: at d = 2 the claimed radius is the spectral floor, inside
    which every state is PPT, and at d = 3..6 the probe refutes the claim.
    """
    d = qudit_dim
    if not 2 <= d <= 6:
        raise ValueError(f"qudit_dim must lie in 2..6, got {d}")
    serialize.check_int("samples", samples)
    if not 1 <= samples <= MAX_SAMPLES_PER_SHELL:
        raise ValueError(f"samples must lie in 1..{MAX_SAMPLES_PER_SHELL}, got {samples}")
    serialize.check_seed(base_seed)
    split = BipartiteSplit(d, d)
    table = bounds_table(d)
    sweep = werner_sweep(d)
    radii = [scale * table.ppt_radius for scale in CLAIM_SHELL_SCALES]
    shells = shell_scan(d * d, split, radii, samples_per_shell=samples, base_seed=base_seed)
    spectrum = spectrum_check(split, trials=50, seed=base_seed)

    probe = None
    if sweep.p_star < sweep.paper_pm:
        p_mid = (sweep.p_star + sweep.paper_pm) / 2
        probe = WernerProbe(p_mid, *_werner_point(d, p_mid))

    counterexample = None
    if probe is not None and _refutes(probe.distance, probe.min_pt_eig, table.ppt_radius):
        counterexample = Counterexample(
            source="werner-probe",
            state=werner(WernerParams(d, probe.p)),
            distance=probe.distance,
            min_pt_eig=probe.min_pt_eig,
        )

    return ClaimCheckReport(
        qudit_dim=d,
        table=table,
        sweep=sweep,
        shells=shells,
        probe=probe,
        spectrum=spectrum,
        counterexample=counterexample,
        base_seed=base_seed,
    )


# ---------------------------------------------------------------------------
# report rendering and loading


def sweep_to_csv(report: SweepReport) -> str:
    header = {**serialize.report_header(generator=None), "d": report.qudit_dim,
              "p_star": report.p_star, "paper_pm": report.paper_pm, "oracle_pm": report.oracle_pm}
    return serialize.to_csv(header, SweepRow._fields, report.rows)


def shells_to_csv(report: ShellReport) -> str:
    header = {**serialize.report_header(seed=report.base_seed), "N": report.split.dim,
              "split": f"{report.split.m}x{report.split.n}"}
    return serialize.to_csv(header, ShellRow._fields, report.rows)


def claim_report_to_dict(report: ClaimCheckReport, timestamp: str | None = None) -> dict:
    header = serialize.report_header(seed=report.base_seed)
    header["timestamp"] = (timestamp if timestamp is not None
                           else datetime.datetime.now(datetime.timezone.utc).isoformat())
    table = report.table
    out = {
        "header": header,
        "qudit_dim": report.qudit_dim,
        "total_dim": table.total_dim,
        "bounds": {
            "outer_radius": table.outer_radius,
            "separable_radius": table.separable_radius,
            "ppt_radius": table.ppt_radius,
            "werner_pm": table.werner_pm,
        },
        "werner_sweep": {
            "p_star": report.sweep.p_star,
            "paper_pm": report.sweep.paper_pm,
            "oracle_pm": report.sweep.oracle_pm,
            "rows": [list(r) for r in report.sweep.rows],
        },
        "shell_scan": {
            "samples_per_shell": report.shells.samples_per_shell,
            "rows": [list(r) for r in report.shells.rows],
        },
        "werner_probe": None if report.probe is None else {
            "p": report.probe.p,
            "distance": report.probe.distance,
            "min_pt_eigenvalue": report.probe.min_pt_eig,
        },
        "spectrum_check": {
            "max_deviation": report.spectrum.max_deviation,
            "passed": report.spectrum.passed,
        },
        "verdict": report.verdict,
        "counterexample": None,
    }
    ce = report.counterexample
    if ce is not None:
        out["counterexample"] = {
            "source": ce.source,
            "distance": ce.distance,
            "min_pt_eigenvalue": ce.min_pt_eig,
            "state": serialize.matrix_to_json(ce.state.matrix, factors=(report.qudit_dim,) * 2),
        }
    return out


def _input(obj: dict, path: tuple, valid: Callable[[object], bool], want: str):
    """The value at `path` (keys) in a claim report; raises ValueError naming
    the field when it is missing or `valid` rejects it."""
    where = ""
    for key in path:
        if not isinstance(obj, dict):
            raise ValueError(f"{where} must be an object, got {obj!r}")
        where = f"{where} {key!r}".lstrip()
        if key not in obj:
            raise ValueError(f"missing field {where}")
        obj = obj[key]
    if not valid(obj):
        raise ValueError(f"{where} must be {want}, got {obj!r}")
    return obj


def _brief(value) -> str:
    text = json.dumps(value)
    return text if len(text) <= 60 else text[:56] + " ..."


def _diff(recorded, expected, where: str = "") -> str | None:
    """The first field ('shell_scan' 'rows' 0), in `expected`'s order, at
    which the JSON tree `recorded` differs from `expected`, said as an error
    message, or None.  Leaves are compared by their JSON text: 20.0 and 20
    differ."""
    if isinstance(expected, list) and isinstance(recorded, list) and len(recorded) == len(expected):
        expected, recorded = dict(enumerate(expected)), dict(enumerate(recorded))
    if isinstance(expected, dict) and isinstance(recorded, dict):
        for key in {**expected, **recorded}:
            name = f"{where} {key!r}".lstrip()
            if key not in recorded or key not in expected:
                return f"{'missing' if key in expected else 'unexpected'} field {name}"
            found = _diff(recorded[key], expected[key], name)
            if found:
                return found
    elif json.dumps(recorded) != json.dumps(expected):
        return f"{where} must be {_brief(expected)}, got {_brief(recorded)}"
    return None


def verify_claim_report(obj: dict) -> dict:
    """Re-verify a loaded claim-check report by recomputing it from the
    inputs it records, `qudit_dim` (2..6), `shell_scan` `samples_per_shell`
    (1..MAX_SAMPLES_PER_SHELL), `header` `seed` (>= 0) and `timestamp`: the
    result must equal it exactly (`_diff`), which costs one `claim_check`
    and holds on a build that reproduces the report bit for bit.  A report
    that equals the recomputed one carries `claim_check`'s own verdict, so
    its counterexample refutes the claim by `_refutes`, as its Werner probe
    and shell rows are `claim_check`'s.  A difference is reported as the
    report not reproducing on this build: a forged field and last-bit
    rounding on another numpy or LAPACK build read alike.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"a claim report must be a JSON object, got {type(obj).__name__}")
    d = _input(obj, ("qudit_dim",), lambda v: serialize.is_int(v) and 2 <= v <= 6,
               "an integer in 2..6")
    samples = _input(obj, ("shell_scan", "samples_per_shell"),
                     lambda v: serialize.is_int(v) and 1 <= v <= MAX_SAMPLES_PER_SHELL,
                     f"an integer in 1..{MAX_SAMPLES_PER_SHELL}")
    seed = _input(obj, ("header", "seed"), lambda v: serialize.is_int(v) and v >= 0, "an integer >= 0")
    timestamp = _input(obj, ("header", "timestamp"), lambda v: isinstance(v, str), "a string")
    found = _diff(obj, claim_report_to_dict(claim_check(d, samples, seed), timestamp=timestamp))
    if found:
        raise ValueError(f"report does not reproduce on this build "
                         f"(tool_version {serialize.TOOL_VERSION}): {found}")
    return obj


def load_claim_report(path) -> dict:
    return verify_claim_report(serialize.load_json(path))
