"""Density-matrix construction, validation, and seeded random sampling.

Sampling follows the Hilbert-Schmidt (Ginibre) measure: rho = G G† / Tr(G G†)
with G a square matrix of independent standard complex Gaussians.  Streams are
reproducible: PCG64 supplies uniforms and Gaussians come from a vectorized
Box-Muller transform, so a seed pins the output bit-for-bit.  Shell samples
are drawn in stacks whose output and stream match drawing them one at a
time: stacked traces and norms reduce each sample in numpy's per-matrix
order, and the PSD test settles rows by closed-form bounds, then by a
Cholesky certificate (see `shell_batch`), and eigen-solves only the rows
both leave open.  Beyond the typical HS distance of a random state, where
most attempts are rejects, a single-precision screen first drops the
attempts that the same Cholesky certificate proves rejects by SCREEN_MARGIN;
the rest take the exact float64 path, so the output stays bit-identical.
The generator identity string is recorded in every report header.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DimensionMismatch, as_hermitian, cholesky_margin, cholesky_passes, min_eig_at_least

GENERATOR_ID = "pcg64+box-muller"

DENSITY_TRACE_TOL = 1e-10
DENSITY_PSD_TOL = 1e-9
PURE_NORM_TOL = 1e-12
# Shell acceptance is deliberately stricter than DENSITY_PSD_TOL, so the
# acceptance test already proves every accepted sample PSD and no second
# solve is needed before it leaves the sampler.
SHELL_PSD_TOL = 1e-12
# Beyond the typical HS distance (`_typical_hs_radius`) most shell candidates
# are rejects, and a screen on single-precision normals drops the rows whose
# candidate a Cholesky certificate proves to have its smallest eigenvalue
# below -SCREEN_MARGIN before the exact path runs.  Rounding the normals to
# float32 moves that eigenvalue by order eps32 * s (below 1e-7 for
# N = 4..64), so a screened row is a reject by a wide margin.
SCREEN_MARGIN = 1e-4
# Shell samples are stacked so that one N x N complex stack takes about this
# many bytes: 256 samples at N = 4, 16 at N = 16.  It bounds peak memory.
SHELL_CHUNK_BYTES = 64 * 1024


class NotNormalized(ValueError):
    """Pure-state amplitudes are not unit norm."""


def _box_muller(u: np.ndarray, dtype=np.float64) -> tuple[np.ndarray, np.ndarray]:
    """Cosine and sine normals from uniforms of shape (..., 2, pairs).

    Row 0 of the pair axis feeds the radius and row 1 the angle, so one
    PCG64 draw of that shape is the stream order of drawing all u1, then all
    u2, one set of pairs after another.  With dtype float32 the radius is
    the float64 one rounded, and the angle, cosine and sine are float32.
    """
    # 1 - random() lies in (0, 1], keeping the log finite.
    radius = np.sqrt(-2.0 * np.log(1.0 - u[..., 0, :])).astype(dtype, copy=False)
    angle = u[..., 1, :].astype(dtype, copy=False) * dtype(2.0 * np.pi)
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
    parts = x.view(np.float64).reshape(len(x), -1)
    parts *= factors[:, None]


def _shift_diagonal(x: np.ndarray, value: float) -> None:
    """Add value * I to each matrix of a (k, N, N) complex stack, in place, on
    the real diagonal only: `x + value * I` adds zero everywhere else."""
    diagonal = x.reshape(len(x), -1)[:, :: x.shape[1] + 1].real
    diagonal += value


def _psd_bounds(dim: int, scale: np.ndarray, radius: float) -> np.ndarray:
    """Rows of a shell-candidate stack, with rescale factors `scale`, that
    closed-form bounds certify as accepted (see shell_batch)."""
    if radius <= 1.0 / np.sqrt(dim * (dim - 1)):
        return np.ones(len(scale), dtype=bool)
    return scale <= 1.0


def _typical_hs_radius(dim: int) -> float:
    """HS distance from I/N of a typical HS-random state, r_hs(N).

    E tr rho0^2 = 2N/(N^2+1) (Zyczkowski & Sommers, J. Phys. A 34, 7111,
    2001), so ||rho0 - I/N||^2 averages 2N/(N^2+1) - 1/N.
    """
    return float(np.sqrt(2.0 * dim / (dim * dim + 1) - 1.0 / dim))


def _screen_rejects(u: np.ndarray, dim: int, radius: float) -> np.ndarray:
    """Rows of shell uniforms (count, 2, N^2) whose candidates a Cholesky
    certificate on single-precision normals proves rejects (see shell_batch)."""
    count = len(u)
    re, im = _box_muller(u, np.float32)
    g = (re + 1j * im).astype(np.complex128).reshape(count, dim, dim)
    w = g @ g.conj().transpose(0, 2, 1)
    trace = _stacked_traces(w)
    flat = w.reshape(count, dim * dim).view(np.float64)
    scale = radius / np.sqrt(np.einsum("ij,ij->i", flat, flat) / (trace * trace) - 1.0 / dim)
    w /= trace[:, None, None]
    # The candidate's smallest eigenvalue lies below -SCREEN_MARGIN exactly
    # when lambda_min(rho0) lies below this threshold.
    threshold = 1.0 / dim - (1.0 / dim + SCREEN_MARGIN) / scale
    return ~cholesky_passes(w, threshold - cholesky_margin(dim))


def shell_batch(rng: np.random.Generator, dim: int, radius: float, count: int) -> np.ndarray:
    """`count` attempts at states on the shell of HS radius `radius` around I/N.

    Each attempt draws an HS-random state rho0, rescales its traceless part
    Delta = rho0 - I/N to the target norm, and is rejected when the result
    leaves the PSD cone (smallest eigenvalue below -SHELL_PSD_TOL).  Returns
    the accepted states as a (k, N, N) stack, each Hermitian to the bit and
    of unit trace; k = 0 gives an empty (0, N, N) stack.

    The attempts are stacked.  Every stacked operation is elementwise or
    per matrix, and the trace and norm reductions (`_stacked_traces`,
    `_stacked_norms`) sum each sample in the order `np.trace` and
    `np.linalg.norm` do, so the result and the generator stream are
    bit-identical to `count` single attempts.

    Closed-form bounds certify most accepts without an eigen-solve.
    With s = radius / ||Delta||, a candidate is
    I/N + s Delta = (1 - s) I/N + s rho0, so:

    - s <= 1 makes it a convex mix of PSD matrices: certified accept.
    - radius <= 1/sqrt(N(N-1)), the spectral floor, is a certified accept
      for every row: a traceless Hermitian matrix of HS norm r has no
      eigenvalue below -r sqrt((N-1)/N), which is -1/N there.

    Rounding moves these bounds by order N * eps, far inside the
    eigen-solve's own tolerance, so each certified row gets the verdict the
    eigen-solve would give.  The remaining rows take a Cholesky certificate
    (`min_eig_at_least`, with the margin m = `cholesky_margin(N)` derived
    there): a row whose candidate minus (-SHELL_PSD_TOL + m) I factors is
    an accept, one whose candidate minus (-SHELL_PSD_TOL - m) I fails to
    factor is a reject, and m covers the rounding of the factorization and
    of `eigvalsh` alike, so both match the eigen-solve's verdict.  Only the
    rows within m of the threshold go through one stacked `eigvalsh`.

    Beyond the typical HS distance r_hs(N) (`_typical_hs_radius`) almost
    every candidate has s > 1 and most are rejects.  There the uniforms
    first pass a screen (`_screen_rejects`) built on a float32 Box-Muller
    transform, whose cosine and sine cost a tenth of the float64 ones:
    the Gram matrix w = G G† of those normals, t = tr w, rho0 = w / t,
    ||Delta||^2 = ||w||_F^2 / t^2 - 1/N, and, since s > 0, the exact
    smallest eigenvalue 1/N - s (1/N - lambda_min(rho0)) of the candidate.
    It lies below -SCREEN_MARGIN exactly when lambda_min(rho0) lies below
    tau = 1/N - (1/N + SCREEN_MARGIN) / s, and a row is dropped when
    rho0 - (tau - m) I fails to factor (`cholesky_passes`), which proves
    that.  (Beyond r_hs, s > r_hs(N) / sqrt((N-1)/N) > 1/sqrt(N), so
    |tau| < 1, as `cholesky_margin` assumes.)  SCREEN_MARGIN is far above
    what the float32 normals move the eigenvalue, so each dropped row is
    one the exact path rejects.  The surviving rows' uniforms go through
    the float64 path unchanged, so output and stream stay bit-identical.
    Inside r_hs the screen never runs, and every claimed PPT radius
    (`claim_check`, d = 2..6) lies inside it: at d = 2 the claim is
    1/sqrt(12) = 0.2887 < r_hs(4) = 0.4697 (the general formula's 0.4733
    would lie beyond it).
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    u = rng.random((count, 2, dim * dim))
    if radius > _typical_hs_radius(dim):
        u = u[~_screen_rejects(u, dim, radius)]
    count = len(u)
    if not count:
        return np.empty((0, dim, dim), dtype=np.complex128)

    re, im = _box_muller(u)
    g = (re + 1j * im).reshape(count, dim, dim)
    rho0 = g @ g.conj().transpose(0, 2, 1)
    _scale_rows(rho0, 1.0 / _stacked_traces(rho0))
    # Symmetrized as DensityMatrix stores an HS state.  The steps below
    # (subtract a real diagonal, scale by a real factor, add it back) keep
    # every candidate Hermitian to the bit, so none needs a second pass.
    candidates = (rho0 + rho0.conj().transpose(0, 2, 1)) / 2
    _shift_diagonal(candidates, -1.0 / dim)
    scale = radius / _stacked_norms(candidates)
    _scale_rows(candidates, scale)
    _shift_diagonal(candidates, 1.0 / dim)

    keep = _psd_bounds(dim, scale, radius)
    undecided = ~keep
    if undecided.any():
        keep[undecided] = min_eig_at_least(candidates[undecided], -SHELL_PSD_TOL)
    accepted = candidates[keep]

    trace_dev = float(np.max(np.abs(_stacked_traces(accepted) - 1.0), initial=0.0))
    if trace_dev > DENSITY_TRACE_TOL:
        raise ValueError(f"shell sample trace deviates from 1 by {trace_dev:.3e}")
    return accepted


def shell_attempt(rng: np.random.Generator, dim: int, radius: float) -> DensityMatrix | None:
    """One shell attempt (see shell_batch); None when it leaves the PSD cone."""
    accepted = shell_batch(rng, dim, radius, 1)
    return DensityMatrix(dim=dim, matrix=accepted[0]) if len(accepted) else None

