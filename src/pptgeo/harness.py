"""Claim-verification harness: Werner sweeps, shell scans, spectrum checks.

Every report is deterministic given its base seed: shell i of a scan draws
from base_seed + i, and each part of a shell from that stream advanced to its
first sample, whether it runs in this process or in a helper process forked
once and kept for later scans (helpers run the code as loaded when forked).
Claim checks never hard-fail on a refuted radius claim: the verdict plus a
serialized counterexample state is the output, so a correct run stays green
even when the claim under test is not.
"""

from __future__ import annotations

import datetime
import functools
import io
import os
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import serialize
from .bipartite import (
    PPT_TOL,
    BipartiteSplit,
    is_ppt,
    min_pt_eigenvalues,
    pt_spectrum_analytic,
    pure_pt_spectra,
    schmidt,
)
from .bounds import BoundsTable, ball_radius, bounds_table, werner_pm
from .linalg import hs_distance
from .states import (
    GENERATOR_ID,
    DensityMatrix,
    PureState,
    WernerParams,
    maximally_mixed,
    shell_batch,
    shell_chunk,
    standard_normals,
    werner,
)
from .workers import pool_map

VERDICT_CONSISTENT = "CONSISTENT"
VERDICT_COUNTEREXAMPLE = "COUNTEREXAMPLE_FOUND"

NEGATIVITY_TOL = 1e-9
CLAIM_SHELL_SCALES = (0.5, 0.9, 0.99, 1.0)
DEFAULT_SAMPLES_PER_SHELL = 2000


def bisect_decreasing(f: Callable[[float], float], lo: float, hi: float,
                      tol: float = 1e-10) -> float:
    """Root of a decreasing function by bisection; the sign bracket
    f(lo) > 0 > f(hi) is asserted at every step."""
    flo, fhi = f(lo), f(hi)
    if not (flo > 0.0 > fhi):
        raise ValueError(f"endpoints do not bracket a root: f({lo})={flo}, f({hi})={fhi}")
    while hi - lo > tol:
        mid = (lo + hi) / 2
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
    bisection_tol: float


def _werner_min_pt(d: int, split: BipartiteSplit, p: float) -> float:
    return is_ppt(werner(WernerParams(d, p)), split).min_pt_eigenvalue


def werner_sweep(qudit_dim: int, grid_points: int = 21,
                 bisection_tol: float = 1e-10) -> SweepReport:
    """Sweep the Werner family of a d (x) d system over a mixing grid."""
    d = qudit_dim
    if not 2 <= d <= 8:
        raise ValueError(f"qudit_dim must lie in 2..8, got {d}")
    if grid_points < 2:
        raise ValueError(f"grid_points must be >= 2, got {grid_points}")
    total = d * d
    split = BipartiteSplit(d, d)
    eye = maximally_mixed(total)

    rows = []
    for p in np.linspace(0.0, 1.0, grid_points):
        state = werner(WernerParams(d, float(p)))
        check = is_ppt(state, split)
        rows.append(SweepRow(
            p=float(p),
            distance=hs_distance(state.matrix, eye.matrix),
            min_pt_eig=check.min_pt_eigenvalue,
            ppt=check.ppt,
        ))

    p_star = bisect_decreasing(lambda p: _werner_min_pt(d, split, p), 0.0, 1.0,
                               tol=bisection_tol)
    return SweepReport(
        qudit_dim=d,
        rows=tuple(rows),
        p_star=p_star,
        paper_pm=werner_pm(total),
        oracle_pm=1.0 / (d + 1),
        bisection_tol=bisection_tol,
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
    """PPT statistics on HS-distance shells around I/N.

    One row per radius; shard seeds are base_seed + row index.  worst_state
    (when capture is on) is the accepted sample with the most negative PT
    eigenvalue across all shells, with its radius and eigenvalue.
    """

    total_dim: int
    split: BipartiteSplit
    rows: tuple[ShellRow, ...]
    samples_per_shell: int
    base_seed: int
    generator: str
    worst_state: DensityMatrix | None = None
    worst_radius: float | None = None
    worst_min_pt: float | None = None


def _merge(a: tuple, b: tuple) -> tuple:
    """Tallies (accepted, ppt_count, min PT floor, its state) of consecutive
    sample ranges a then b; strict <, so a tie keeps a's state."""
    return (a[0] + b[0], a[1] + b[1], *(b[2:] if b[2] < a[2] else a[2:]))


def _scan_part(total_dim: int, split: BipartiteSplit, radius: float, seed: int,
               first: int, stop: int) -> tuple:
    """Samples [first, stop) of one `shell_scan` shell, drawn chunk by chunk
    from default_rng(seed) advanced past the 2 N^2 uniforms (one PCG64 step
    each) of every earlier sample.

    Returns their tally (see _merge): the minimum is inf and its state None
    when no sample was accepted.
    """
    rng = np.random.default_rng(seed)
    rng.bit_generator.advance(first * 2 * total_dim**2)
    chunk = shell_chunk(total_dim)
    tally = (0, 0, np.inf, None)
    for start in range(first, stop, chunk):
        states = shell_batch(rng, total_dim, radius, min(chunk, stop - start))
        if len(states):
            floors = min_pt_eigenvalues(states, split)
            lowest = int(np.argmin(floors))
            tally = _merge(tally, (len(states), int(np.count_nonzero(floors >= -PPT_TOL)),
                                   float(floors[lowest]), states[lowest].copy()))
    return tally


def _usable_cpus() -> int:
    """CPUs this process may run on (1 where the platform cannot tell)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def shell_scan(total_dim: int, split: BipartiteSplit, radii, samples_per_shell: int = DEFAULT_SAMPLES_PER_SHELL,
               base_seed: int = 0, capture_worst: bool = False) -> ShellReport:
    """Sample each shell and record acceptance and PPT statistics.

    Shell i draws from default_rng(base_seed + i) alone.  Each shell is cut
    at chunk boundaries into k = min(usable CPUs, chunks) contiguous parts,
    part j of every shell runs in helper j (`pool_map`; part 0 here), and
    the parts merge in sample order, so the report is the same byte for byte
    for any k.  Unreachable shells (every attempt rejected) surface as
    accepted = 0 rather than an error.
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
    if samples_per_shell < 1:
        raise ValueError("samples_per_shell must be >= 1")
    if base_seed < 0:
        raise ValueError(f"seed must be >= 0, got {base_seed}")

    samples, chunk = samples_per_shell, shell_chunk(total_dim)
    chunks = -(-samples // chunk)
    k = min(_usable_cpus(), chunks)
    cuts = [min(j * chunks // k * chunk, samples) for j in range(k + 1)]
    parts = pool_map(_scan_part, [[(total_dim, split, radius, base_seed + index, first, stop)
                                   for index, radius in enumerate(radii)]
                                  for first, stop in zip(cuts, cuts[1:])])
    rows = []
    worst_matrix, worst_radius, worst_min_pt = None, None, np.inf
    for index, radius in enumerate(radii):
        accepted, ppt_count, min_pt, worst = functools.reduce(
            _merge, [part[index] for part in parts])
        rows.append(ShellRow(radius, samples, accepted, ppt_count,
                             (ppt_count / accepted) if accepted else 0.0,
                             min_pt if accepted else float("nan")))
        # Strict: a tie keeps the earlier shell's state.
        if capture_worst and worst is not None and min_pt < worst_min_pt:
            worst_matrix, worst_radius, worst_min_pt = worst, radius, min_pt
    worst_state = None if worst_matrix is None else DensityMatrix(dim=total_dim, matrix=worst_matrix)
    return ShellReport(
        total_dim=total_dim,
        split=split,
        rows=tuple(rows),
        samples_per_shell=samples,
        base_seed=base_seed,
        generator=GENERATOR_ID,
        worst_state=worst_state,
        worst_radius=worst_radius,
        worst_min_pt=None if worst_state is None else worst_min_pt,
    )


def sample_pure(rng: np.random.Generator, dim: int) -> PureState:
    """Random pure state: normalized vector of standard complex Gaussians."""
    g = standard_normals(rng, 2 * dim)
    amp = g[:dim] + 1j * g[dim:]
    return PureState(dim=dim, amplitudes=amp / np.linalg.norm(amp))


class SpectrumRow(NamedTuple):
    split: str
    trials: int
    max_deviation: float
    passed: bool


@dataclass(frozen=True)
class SpectrumCheckReport:
    rows: tuple[SpectrumRow, ...]
    seed: int
    tolerance: float
    passed: bool


def spectrum_check(splits, trials: int, seed: int,
                   tolerance: float = 1e-9) -> SpectrumCheckReport:
    """Compare closed-form and numeric PT spectra of random pure states.

    For each split and trial, the sorted analytic spectrum (including zero
    multiplicities) must match the eigensolver output of the explicit
    partial transpose to `tolerance` max-abs.  Each split draws all its
    trials' states first, then solves their partial transposes as one stack.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rows = []
    for index, split in enumerate(splits):
        rng = np.random.default_rng(seed + index)
        psis = [sample_pure(rng, split.dim) for _ in range(trials)]
        analytic = np.stack([pt_spectrum_analytic(schmidt(psi, split), split) for psi in psis])
        numeric = pure_pt_spectra(np.stack([psi.amplitudes for psi in psis]), split)
        worst = float(np.max(np.abs(analytic - numeric)))
        rows.append(SpectrumRow(
            split=f"{split.m}x{split.n}",
            trials=trials,
            max_deviation=worst,
            passed=worst <= tolerance,
        ))
    return SpectrumCheckReport(
        rows=tuple(rows),
        seed=seed,
        tolerance=tolerance,
        passed=all(r.passed for r in rows),
    )


class WernerProbe(NamedTuple):
    p: float
    distance: float
    min_pt_eig: float


@dataclass(frozen=True, eq=False)
class Counterexample:
    """A state inside the claimed PPT ball whose partial transpose is negative."""

    source: str  # "werner-probe" or "shell-scan"
    state: DensityMatrix
    split: BipartiteSplit
    distance: float
    min_pt_eig: float


@dataclass(frozen=True, eq=False)
class ClaimCheckReport:
    """Per-dimension adjudication of the claimed PPT-ball radius.

    verdict is COUNTEREXAMPLE_FOUND exactly when a state at distance at most
    the claimed radius has a PT eigenvalue below -1e-9; the offending state
    rides along and re-verifies from its serialized matrix alone.
    """

    qudit_dim: int
    table: BoundsTable
    sweep: SweepReport
    shells: ShellReport
    probe: WernerProbe | None
    spectrum: SpectrumCheckReport
    verdict: str
    counterexample: Counterexample | None
    base_seed: int


def claim_check(qudit_dim: int, samples: int = DEFAULT_SAMPLES_PER_SHELL,
                base_seed: int = 0) -> ClaimCheckReport:
    """Adjudicate the claimed PPT radius for a d (x) d system.

    The deterministic Werner probe at the midpoint between the numeric and
    claimed thresholds runs first (cheapest, zero-variance falsifier); the
    random shell scan at {0.5, 0.9, 0.99, 1.0} of the claimed radius backs
    it up.
    """
    d = qudit_dim
    if not 2 <= d <= 6:
        raise ValueError(f"qudit_dim must lie in 2..6, got {d}")
    total = d * d
    split = BipartiteSplit(d, d)
    table = bounds_table(d)
    sweep = werner_sweep(d)
    radii = [scale * table.ppt_radius for scale in CLAIM_SHELL_SCALES]
    shells = shell_scan(total, split, radii, samples_per_shell=samples,
                        base_seed=base_seed, capture_worst=True)
    spectrum = spectrum_check([split], trials=50, seed=base_seed)

    probe = None
    if sweep.p_star < sweep.paper_pm:
        p_mid = (sweep.p_star + sweep.paper_pm) / 2
        state = werner(WernerParams(d, p_mid))
        check = is_ppt(state, split)
        probe = WernerProbe(
            p=p_mid,
            distance=hs_distance(state.matrix, maximally_mixed(total).matrix),
            min_pt_eig=check.min_pt_eigenvalue,
        )

    counterexample = None
    if probe is not None and probe.min_pt_eig < -NEGATIVITY_TOL and probe.distance <= table.ppt_radius:
        counterexample = Counterexample(
            source="werner-probe",
            state=werner(WernerParams(d, probe.p)),
            split=split,
            distance=probe.distance,
            min_pt_eig=probe.min_pt_eig,
        )
    elif shells.worst_state is not None and shells.worst_min_pt < -NEGATIVITY_TOL:
        counterexample = Counterexample(
            source="shell-scan",
            state=shells.worst_state,
            split=split,
            distance=shells.worst_radius,
            min_pt_eig=shells.worst_min_pt,
        )

    return ClaimCheckReport(
        qudit_dim=d,
        table=table,
        sweep=sweep,
        shells=shells,
        probe=probe,
        spectrum=spectrum,
        verdict=VERDICT_COUNTEREXAMPLE if counterexample else VERDICT_CONSISTENT,
        counterexample=counterexample,
        base_seed=base_seed,
    )


# ---------------------------------------------------------------------------
# report rendering and loading


def sweep_to_csv(report: SweepReport) -> str:
    buf = io.StringIO()
    buf.write(f"# tool_version={serialize.TOOL_VERSION}\n")
    buf.write(f"# d={report.qudit_dim}\n")
    buf.write(f"# p_star={serialize.fmt17(report.p_star)}\n")
    buf.write(f"# paper_pm={serialize.fmt17(report.paper_pm)}\n")
    buf.write(f"# oracle_pm={serialize.fmt17(report.oracle_pm)}\n")
    buf.write("p,distance,min_pt_eig,ppt\n")
    for row in report.rows:
        buf.write(f"{serialize.fmt17(row.p)},{serialize.fmt17(row.distance)},"
                  f"{serialize.fmt17(row.min_pt_eig)},{int(row.ppt)}\n")
    return buf.getvalue()


def shells_to_csv(report: ShellReport) -> str:
    buf = io.StringIO()
    buf.write(f"# tool_version={serialize.TOOL_VERSION}\n")
    buf.write(f"# generator={report.generator}\n")
    buf.write(f"# seed={report.base_seed}\n")
    buf.write(f"# N={report.total_dim}\n")
    buf.write(f"# split={report.split.m}x{report.split.n}\n")
    buf.write("radius,samples,accepted,ppt_count,ppt_fraction,min_pt_eig\n")
    for row in report.rows:
        buf.write(f"{serialize.fmt17(row.radius)},{row.samples},{row.accepted},"
                  f"{row.ppt_count},{serialize.fmt17(row.ppt_fraction)},"
                  f"{serialize.fmt17(row.min_pt_eig)}\n")
    return buf.getvalue()


def claim_report_to_dict(report: ClaimCheckReport, timestamp: str | None = None) -> dict:
    header = serialize.report_header(seed=report.base_seed)
    header["timestamp"] = timestamp or datetime.datetime.now(datetime.timezone.utc).isoformat()
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
            "max_deviation": max(r.max_deviation for r in report.spectrum.rows),
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
            "state": serialize.matrix_to_json(ce.state.matrix, factors=(ce.split.m, ce.split.n)),
        }
    return out


def verify_claim_report(obj: dict) -> dict:
    """Re-validate a loaded claim-check report from its serialized state alone.

    A COUNTEREXAMPLE_FOUND verdict must carry a state that, recomputed from
    the embedded matrix, sits within the claimed radius and has a PT
    eigenvalue below -1e-9.  Raises ValueError otherwise.
    """
    if obj["verdict"] == VERDICT_COUNTEREXAMPLE:
        ce = obj.get("counterexample")
        if ce is None:
            raise ValueError("COUNTEREXAMPLE_FOUND verdict without an attached state")
        matrix, factors = serialize.array_from_json(ce["state"])
        if factors is None:
            raise ValueError("counterexample state lacks split metadata")
        state = DensityMatrix(dim=matrix.shape[0], matrix=matrix)
        split = BipartiteSplit(*factors)
        distance = hs_distance(state.matrix, maximally_mixed(state.dim).matrix)
        check = is_ppt(state, split)
        if distance > obj["bounds"]["ppt_radius"] + 1e-12:
            raise ValueError(
                f"counterexample distance {distance} exceeds claimed radius "
                f"{obj['bounds']['ppt_radius']}"
            )
        if check.min_pt_eigenvalue >= -NEGATIVITY_TOL:
            raise ValueError(
                f"counterexample PT floor {check.min_pt_eigenvalue} is not below {-NEGATIVITY_TOL}"
            )
    return obj


def load_claim_report(path) -> dict:
    return verify_claim_report(serialize.load_json(path))
