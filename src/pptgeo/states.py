"""Density-matrix construction, validation, and seeded random sampling.

Sampling follows the Hilbert-Schmidt (Ginibre) measure: rho = G G† / Tr(G G†)
with G a square matrix of independent standard complex Gaussians.  Streams are
reproducible: PCG64 supplies uniforms and Gaussians come from a vectorized
Box-Muller transform, so a seed pins the output bit-for-bit.  Shell samples
are drawn in stacks whose output and stream match drawing them one at a
time.  A shell scan's stacks first pass a screen on single-precision
normals (`shell_screen`); only the attempts it leaves open take the exact
float64 path (`shell_states`), which `shell_attempt` runs alone, where
stacked traces and norms reduce each sample in numpy's per-matrix order.
Both take their PSD verdicts from one certificate (`_psd_verdicts`), at
two margins, and the float64 path eigen-solves the rows it leaves open.
The generator identity string is recorded in every report header.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import DimensionMismatch, as_hermitian, cholesky_margin, cholesky_passes

GENERATOR_ID = "pcg64+box-muller"

DENSITY_TRACE_TOL = 1e-10
DENSITY_PSD_TOL = 1e-9
PURE_NORM_TOL = 1e-12
# Shell acceptance is deliberately stricter than DENSITY_PSD_TOL, so the
# acceptance test already proves every accepted sample PSD and no second
# solve is needed before it leaves the sampler.
SHELL_PSD_TOL = 1e-12
# How far past a threshold the single-precision screen must prove an
# eigenvalue before it settles a verdict (see shell_screen).  Rounding the
# normals to float32 moves a shell candidate by at most 4e-7 in HS norm
# (measured for N = 4..36), and so each eigenvalue of it and of its partial
# transpose by no more, so each settled verdict holds by a wide margin.
SCREEN_MARGIN = 1e-4
# Shell samples are stacked so that one N x N complex stack takes about this
# many bytes: 1,024 samples at N = 4, 202 at N = 9, 64 at N = 16.  A shell
# part screens every chunk in three stacks of this size (`ShellWork`),
# allocated once, so it bounds peak memory.  Each chunk makes a fixed number
# of stacked numpy calls whatever its rows, so larger chunks make fewer: a
# claim check at d = 3 makes 389 Cholesky calls at this size, 1,116 at 64 KiB.
SHELL_CHUNK_BYTES = 256 * 1024


class NotNormalized(ValueError):
    """Pure-state amplitudes are not unit norm."""


def _box_muller(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cosine and sine normals from uniforms of shape (..., 2, pairs).

    Row 0 of the pair axis feeds the radius and row 1 the angle, so one
    PCG64 draw of that shape is the stream order of drawing all u1, then all
    u2, one set of pairs after another.  (`_float32_candidates` runs the same
    transform in single precision.)
    """
    # 1 - random() lies in (0, 1], keeping the log finite.
    radius = np.sqrt(-2.0 * np.log(1.0 - u[..., 0, :]))
    angle = u[..., 1, :] * (2.0 * np.pi)
    return radius * np.cos(angle), radius * np.sin(angle)


def standard_normals(rng: np.random.Generator, n: int) -> np.ndarray:
    """n standard normals via Box-Muller on PCG64 uniforms."""
    return np.concatenate(_box_muller(rng.random((2, (n + 1) // 2))))[:n]


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Unit-trace positive-semidefinite Hermitian matrix.

    Invariants are checked on construction: Hermitian to 1e-10 max-abs,
    trace 1 to 1e-10, smallest eigenvalue >= -1e-9.  The stored matrix is
    symmetrized after the Hermiticity check, so it and its partial
    transposes equal their conjugate transposes bit for bit.
    """

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        m = as_hermitian(self.matrix)
        if m.shape != (self.dim, self.dim):
            raise DimensionMismatch(f"matrix shape {m.shape} does not match dim {self.dim}")
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > DENSITY_TRACE_TOL:
            raise ValueError(f"trace {tr!r} is not 1 within {DENSITY_TRACE_TOL:.1e}")
        lo = float(np.linalg.eigvalsh(m)[0])
        if lo < -DENSITY_PSD_TOL:
            raise ValueError(f"smallest eigenvalue {lo:.3e} below -{DENSITY_PSD_TOL:.1e}")
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized state vector."""

    dim: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=np.complex128)
        if amp.shape != (self.dim,):
            raise DimensionMismatch(f"amplitude shape {amp.shape} does not match dim {self.dim}")
        if not np.all(np.isfinite(amp)):
            raise ValueError("amplitudes must be finite")
        norm = float(np.linalg.norm(amp))
        if abs(norm - 1.0) > PURE_NORM_TOL:
            raise NotNormalized(f"norm {norm!r} is not 1 within {PURE_NORM_TOL:.1e}")
        object.__setattr__(self, "amplitudes", amp)


@dataclass(frozen=True)
class WernerParams:
    """Werner family parameters: local dimension d >= 2, mixing p in [0, 1]."""

    local_dim: int
    mixing: float

    def __post_init__(self):
        if self.local_dim < 2:
            raise ValueError(f"local_dim must be >= 2, got {self.local_dim}")
        if not 0.0 <= self.mixing <= 1.0:
            raise ValueError(f"mixing must lie in [0, 1], got {self.mixing}")


def maximally_mixed(dim: int) -> DensityMatrix:
    """Identity / N, the center of the state-space ball."""
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    return DensityMatrix(dim=dim, matrix=np.eye(dim, dtype=np.complex128) / dim)


def max_entangled(local_dim: int) -> PureState:
    """Maximally entangled state (1/sqrt(d)) sum_i |ii> on d x d.

    Composite index convention is A-major: (i, k) -> i*d + k.
    """
    d = local_dim
    amp = np.zeros(d * d, dtype=np.complex128)
    amp[:: d + 1] = 1.0 / np.sqrt(d)
    return PureState(dim=d * d, amplitudes=amp)


def werner_matrix(params: WernerParams) -> np.ndarray:
    """The matrix p |Phi><Phi| + (1-p) I/d^2 of `werner`, before validation."""
    d = params.local_dim
    p = params.mixing
    amp = max_entangled(d).amplitudes
    proj = np.outer(amp, amp.conj())
    eye = np.eye(d * d, dtype=np.complex128) / (d * d)
    return p * proj + (1.0 - p) * eye


def werner(params: WernerParams) -> DensityMatrix:
    """Werner family p |Phi><Phi| + (1-p) I/d^2.

    The pure component is pinned to the maximally entangled state, the
    extremal case for partial-transpose negativity; this is what makes the
    d=2 threshold p = 1/3 come out exactly.
    """
    d = params.local_dim
    return DensityMatrix(dim=d * d, matrix=werner_matrix(params))


def sample_hs(rng: np.random.Generator, dim: int) -> DensityMatrix:
    """One Hilbert-Schmidt random state from an existing generator stream."""
    g = standard_normals(rng, 2 * dim * dim)
    g = (g[: dim * dim] + 1j * g[dim * dim :]).reshape(dim, dim)
    w = g @ g.conj().T
    return DensityMatrix(dim=dim, matrix=w / np.trace(w).real)


def shell_chunk(dim: int) -> int:
    """Samples per stacked shell solve at dimension `dim`."""
    return max(1, SHELL_CHUNK_BYTES // (16 * dim * dim))


def shell_uniforms(rng: np.random.Generator, dim: int, count: int) -> np.ndarray:
    """The uniforms of `count` shell attempts, shape (count, 2, N^2): one
    PCG64 draw, in the stream order of drawing the attempts one at a time."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    return rng.random((count, 2, dim * dim))


class ShellWork:
    """Working arrays for screening up to `count` shell attempts at a time
    at dimension `dim`, allocated once per shell part and reused for every
    chunk, so that no chunk allocates (and page-faults) stacks of its own.

    Three (count, N, N) complex stacks each hold one stage after another:

    - `candidates`: the normals G, then the accepted screened candidates.
    - `pt`: the Box-Muller stages, then G G† and from it every row's
      screened candidate, then the accepted ones' partial transposes.
    - `scratch`: the chunk's uniforms (`draw`), then the conjugate of G,
      then where `cholesky_passes` factors.

    Each stage writes the rows it uses before it reads them, so nothing
    carries over from one chunk to the next.  The uniforms are gone once
    the screen has read them; `redraw` draws the rows a chunk still needs
    again, from the generator state that `draw` saved.
    """

    def __init__(self, dim: int, count: int):
        self.dim = dim
        self.candidates, self.pt, self.scratch = np.empty((3, count, dim, dim), dtype=np.complex128)
        self._state = None

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """`shell_uniforms(rng, N, count)` bit for bit, drawn into the memory
        of `scratch` (a complex row has the bytes of one attempt's 2 N^2
        uniforms)."""
        self._state = rng.bit_generator.state
        out = self.scratch.reshape(-1).view(np.float64)[:2 * count * self.dim**2]
        return rng.random(out=out.reshape(count, 2, self.dim**2))

    def redraw(self, rows: np.ndarray) -> np.ndarray:
        """The uniforms of the attempts at `rows` (ascending indices) of the
        last `draw`, drawn again: its stream advanced past the 2 N^2
        uniforms (one PCG64 step each) of every attempt before each row."""
        bits = np.random.PCG64(0)
        bits.state = self._state
        generator, out, drawn = np.random.Generator(bits), np.empty((len(rows), 2, self.dim**2)), 0
        for row, uniforms in zip(rows, out):
            bits.advance(int(row - drawn) * 2 * self.dim**2)
            generator.random(out=uniforms)
            drawn = row + 1
        return out


def _stacked_traces(w: np.ndarray) -> np.ndarray:
    """Real parts of the traces of a (k, N, N) stack, each bit-identical to
    `np.trace(w[i]).real`."""
    return np.trace(w, axis1=1, axis2=2).real


def _stacked_norms(x: np.ndarray) -> np.ndarray:
    """Frobenius norms of a (k, N, N) complex stack, each bit-identical to
    `np.linalg.norm(x[i])`.

    That norm is the square root of a dot product of the real parts plus
    one of the imaginary parts; here each is a stacked vector-vector matmul,
    which reduces in the same order.  (`np.linalg.norm(x, axis=(1, 2))`
    does not.)
    """
    flat = x.reshape(len(x), 1, -1)
    re, im = flat.real, flat.imag
    return np.sqrt((re @ re.swapaxes(1, 2))[:, 0, 0] + (im @ im.swapaxes(1, 2))[:, 0, 0])


def _scale_rows(x: np.ndarray, factors: np.ndarray) -> None:
    """Multiply each matrix of a (k, N, N) complex stack by a real factor, in
    place, through the real view.

    numpy multiplies (and divides) a complex number by f + 0j part by part,
    so this is `x * factors[:, None, None]` bit for bit; with the reciprocal
    of f it is `x / f[:, None, None]`, which numpy computes as a multiply
    by 1/f.  (Only a signed zero entry could differ.)
    """
    parts = x.view(np.float64).reshape(len(x), 2 * x.shape[1] * x.shape[2])
    parts *= factors[:, None]


def _shift_diagonal(x: np.ndarray, value: float) -> None:
    """Add value * I to each matrix of a (k, N, N) complex stack, in place, on
    the real diagonal only: `x + value * I` adds zero everywhere else."""
    diagonal = x.reshape(len(x), x.shape[1] * x.shape[2])[:, :: x.shape[1] + 1].real
    diagonal += value


def _to_shell(delta: np.ndarray, scale: np.ndarray, dim: int) -> np.ndarray:
    """The candidates I/N + s Delta of a (k, N, N) stack of traceless parts,
    computed in place."""
    _scale_rows(delta, scale)
    _shift_diagonal(delta, 1.0 / dim)
    return delta


def _check_traces(stack: np.ndarray) -> None:
    """Raise ValueError unless every matrix of the stack has unit trace."""
    trace_dev = float(np.max(np.abs(_stacked_traces(stack) - 1.0), initial=0.0))
    if trace_dev > DENSITY_TRACE_TOL:
        raise ValueError(f"shell sample trace deviates from 1 by {trace_dev:.3e}")


def _psd_verdicts(candidates: np.ndarray, scale: np.ndarray, dim: int, radius: float, margin: float,
                  scratch: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(rejected, accepted): bools per row of a stack of shell candidates
    (1 - s) I/N + s rho0, with s = `scale`, at HS distance `radius` from I/N,
    settled as `eigvalsh(c)[0] >= -SHELL_PSD_TOL` settles the float64
    candidate c, or left open.  `margin` is `cholesky_margin(N)` plus how
    far a row may lie from c in HS norm, by Weyl's inequality as far as each
    eigenvalue may.

    - Inside the spectral floor 1/sqrt(N(N-1)) every row is accepted (a
      traceless Hermitian matrix of HS norm r has no eigenvalue below
      -r sqrt((N-1)/N)), and beyond it every row with (1 - s)/N >= margin.
    - Of the others, a row that fails to factor (`cholesky_passes`, in
      `scratch`) at -SHELL_PSD_TOL - margin is rejected, and one that passes
      at -SHELL_PSD_TOL + margin accepted.
    """
    rejected, accepted = np.zeros(len(candidates), dtype=bool), np.ones(len(candidates), dtype=bool)
    if radius > 1.0 / np.sqrt(dim * (dim - 1)):
        rows = np.flatnonzero((1.0 - scale) / dim < margin)
        rejected[rows] = ~cholesky_passes(candidates, -SHELL_PSD_TOL - margin, rows, scratch)
        rest = rows[~rejected[rows]]
        accepted[rows] = False
        accepted[rest] = cholesky_passes(candidates, margin - SHELL_PSD_TOL, rest, scratch)
    return rejected, accepted


def _float64_candidates(u: np.ndarray, dim: int, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """The candidates of shell uniforms (k, 2, N^2), each bit-identical to
    one computed alone, and their rescale factors s."""
    re, im = _box_muller(u)
    g = (re + 1j * im).reshape(len(u), dim, dim)
    rho0 = g @ g.conj().transpose(0, 2, 1)
    _scale_rows(rho0, 1.0 / _stacked_traces(rho0))
    # Symmetrized as DensityMatrix stores an HS state.  The steps below
    # (subtract a real diagonal, scale by a real factor, add it back) keep
    # every candidate Hermitian to the bit, so none needs a second pass.
    candidates = (rho0 + rho0.conj().transpose(0, 2, 1)) / 2
    _shift_diagonal(candidates, -1.0 / dim)
    scale = radius / _stacked_norms(candidates)
    return _to_shell(candidates, scale, dim), scale


def shell_states(u: np.ndarray, dim: int, radius: float) -> np.ndarray:
    """The accepted states of the shell attempts whose uniforms are u (k, 2,
    N^2), by the float64 path: a (k', N, N) stack in row order, each
    Hermitian to the bit, of unit trace and bit-identical to one computed
    alone, since the stacked reductions (`_stacked_traces`,
    `_stacked_norms`) sum each sample in numpy's per-matrix order.

    An attempt rescales the traceless part Delta of an HS-random state rho0
    to HS norm `radius`, giving I/N + s Delta = (1 - s) I/N + s rho0, and
    is rejected when that leaves the PSD cone (smallest eigenvalue below
    -SHELL_PSD_TOL).  `_psd_verdicts` at `cholesky_margin(N)` settles what
    it can, and the rows it leaves open take one stacked eigen-solve.
    """
    if not len(u):
        return np.empty((0, dim, dim), dtype=np.complex128)
    candidates, scale = _float64_candidates(u, dim, radius)
    rejected, keep = _psd_verdicts(candidates, scale, dim, radius, cholesky_margin(dim))
    open_rows = np.flatnonzero(~(rejected | keep))
    if open_rows.size:
        keep[open_rows] = np.linalg.eigvalsh(candidates[open_rows])[:, 0] >= -SHELL_PSD_TOL
    accepted = candidates[keep]
    _check_traces(accepted)
    return accepted


class ShellScreen(NamedTuple):
    """Shell attempts after the single-precision screen (see shell_screen)."""

    rejected: np.ndarray  # bool per attempt: the float64 path rejects it
    accepted: np.ndarray  # bool per attempt: the float64 path accepts it
    candidates: np.ndarray  # the screened candidates of the accepted attempts


def _float32_candidates(u: np.ndarray, dim: int, radius: float,
                        work: ShellWork) -> tuple[np.ndarray, np.ndarray]:
    """The screened candidates c' = I/N + s' Delta' of shell uniforms (k, 2,
    N^2), Delta' the traceless part of w / tr w with w = G G† of their
    single-precision normals, and the rescale factors s' = radius / ||Delta'||.

    The normals come from the Box-Muller transform in single precision:
    the float64 radius rounded, and a float32 angle, cosine and sine.  The
    transform is staged in `work.pt`, where c' is then built in place; u
    may be `work.draw`'s, which the conjugate of G overwrites once u is read.
    """
    count, n2 = len(u), dim * dim
    g = work.candidates[:count]
    # Four float32 (k, N^2) arrays fill `work.pt`: the float64 radius takes
    # the first two, and the trig factor the first once that is read.
    staged = work.pt.reshape(-1).view(np.float32)[:4 * count * n2].reshape(4, count, n2)
    r64 = staged[:2].reshape(-1).view(np.float64).reshape(count, n2)
    trig, _, r32, angle = staged
    # 1 - random() lies in (0, 1], keeping the log finite.
    np.subtract(1.0, u[:, 0], out=r64)
    np.log(r64, out=r64)
    np.multiply(-2.0, r64, out=r64)
    np.sqrt(r64, out=r64)
    np.copyto(r32, r64, casting="same_kind")
    np.copyto(angle, u[:, 1], casting="same_kind")
    angle *= np.float32(2.0 * np.pi)
    flat_g = g.reshape(count, n2)
    for part, trig_fn in ((flat_g.real, np.cos), (flat_g.imag, np.sin)):
        trig_fn(angle, out=trig)
        trig *= r32
        part[...] = trig
    conj = np.conjugate(g, out=work.scratch[:count])
    w = np.matmul(g, conj.transpose(0, 2, 1), out=work.pt[:count])
    trace = np.einsum("kii->k", w).real
    flat = w.reshape(count, n2).view(np.float64)
    scale = radius / np.sqrt(np.einsum("ij,ij->i", flat, flat) / (trace * trace) - 1.0 / dim)
    _scale_rows(w, 1.0 / trace)
    _shift_diagonal(w, -1.0 / dim)
    return _to_shell(w, scale, dim), scale


def shell_screen(u: np.ndarray, dim: int, radius: float, work: ShellWork) -> ShellScreen:
    """The PSD verdicts that the single-precision screen settles for shell
    uniforms (k, 2, N^2), and the screened candidates of the attempts it
    accepts, each checked for unit trace, as a view of `work.candidates`
    (every stack is staged in `work`).  The verdicts are `_psd_verdicts` on
    every row's candidate c' (`_float32_candidates`) at SCREEN_MARGIN +
    `cholesky_margin(N)`, the verdicts of `shell_states`: its float64
    candidate lies within SCREEN_MARGIN / 100 of c' (see SCREEN_MARGIN).
    """
    candidates, scale = _float32_candidates(u, dim, radius, work)
    rejected, accepted = _psd_verdicts(candidates, scale, dim, radius, SCREEN_MARGIN + cholesky_margin(dim),
                                       work.scratch)
    kept = np.flatnonzero(accepted)
    candidates = np.take(candidates, kept, axis=0, out=work.candidates[:len(kept)], mode="clip")
    _check_traces(candidates)
    return ShellScreen(rejected, accepted, candidates)


def shell_attempt(rng: np.random.Generator, dim: int, radius: float) -> DensityMatrix | None:
    """One shell attempt (see shell_states); None when it leaves the PSD cone."""
    accepted = shell_states(shell_uniforms(rng, dim, 1), dim, radius)
    return DensityMatrix(dim=dim, matrix=accepted[0]) if len(accepted) else None
