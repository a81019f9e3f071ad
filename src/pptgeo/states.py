"""Density-matrix construction, validation, and seeded random sampling.

Sampling follows the Hilbert-Schmidt (Ginibre) measure: rho = G G† / Tr(G G†)
with G a square matrix of independent standard complex Gaussians.  Streams are
reproducible: PCG64 supplies uniforms and Gaussians come from a vectorized
Box-Muller transform, so a seed pins the output bit-for-bit.  Shell samples
are drawn in stacks whose output and stream match drawing them one at a
time: stacked traces and norms reduce each sample in numpy's per-matrix
order, and the PSD test runs an eigen-solve only on rows that closed-form
bounds (see `shell_batch`) leave undecided.  The generator identity string
is recorded in every report header.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DimensionMismatch, as_hermitian

GENERATOR_ID = "pcg64+box-muller"

DENSITY_HERM_TOL = 1e-10
DENSITY_TRACE_TOL = 1e-10
DENSITY_PSD_TOL = 1e-9
PURE_NORM_TOL = 1e-12
# Shell acceptance is deliberately stricter than DENSITY_PSD_TOL, so the
# acceptance eigen-solve already proves every accepted sample PSD and no
# second solve is needed before it leaves the sampler.
SHELL_PSD_TOL = 1e-12
# A closed-form bound settles a shell PSD decision only when it clears the
# eigen-solve threshold by this margin.  The eigensolver's backward error is
# of order N * eps * ||candidate|| (below 1e-14 for these unit-trace
# matrices), far under the margin, so each bound-settled decision is the
# one the eigen-solve test would make.
SHELL_BOUND_MARGIN = 1e-13
# Shell samples are stacked so that one N x N complex stack takes about this
# many bytes: 256 samples at N = 4, 16 at N = 16.  It bounds peak memory.
SHELL_CHUNK_BYTES = 64 * 1024

DEFAULT_MAX_REJECTS = 10_000


class NotNormalized(ValueError):
    """Pure-state amplitudes are not unit norm."""


class ShellUnreachable(RuntimeError):
    """Rejection sampling failed to land a PSD matrix on the requested shell."""


def _box_muller(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cosine and sine normals from uniforms of shape (..., 2, pairs).

    Row 0 of the pair axis feeds the radius and row 1 the angle, so one
    PCG64 draw of that shape is the stream order of drawing all u1, then all
    u2, one set of pairs after another.
    """
    # 1 - random() lies in (0, 1], keeping the log finite.
    radius = np.sqrt(-2.0 * np.log(1.0 - u[..., 0, :]))
    angle = 2.0 * np.pi * u[..., 1, :]
    return radius * np.cos(angle), radius * np.sin(angle)


def standard_normals(rng: np.random.Generator, n: int) -> np.ndarray:
    """n standard normals via Box-Muller on PCG64 uniforms."""
    return np.concatenate(_box_muller(rng.random((2, (n + 1) // 2))))[:n]


def complex_ginibre(rng: np.random.Generator, n: int) -> np.ndarray:
    """n x n matrix of independent standard complex Gaussians."""
    g = standard_normals(rng, 2 * n * n)
    return (g[: n * n] + 1j * g[n * n :]).reshape(n, n)


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
        m = as_hermitian(self.matrix, tol=DENSITY_HERM_TOL)
        if m.shape != (self.dim, self.dim):
            raise DimensionMismatch(f"matrix shape {m.shape} does not match dim {self.dim}")
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > DENSITY_TRACE_TOL:
            raise ValueError(f"trace {tr!r} is not 1 within {DENSITY_TRACE_TOL:.1e}")
        lo = float(np.linalg.eigvalsh(m)[0])
        if lo < -DENSITY_PSD_TOL:
            raise ValueError(f"smallest eigenvalue {lo:.3e} below -{DENSITY_PSD_TOL:.1e}")
        object.__setattr__(self, "matrix", m)

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized state vector."""

    dim: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=np.complex128)
        if amp.shape != (self.dim,):
            raise DimensionMismatch(f"amplitude shape {amp.shape} does not match dim {self.dim}")
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


def pure_density(psi: PureState) -> DensityMatrix:
    """Rank-1 projector |psi><psi|."""
    amp = psi.amplitudes
    return DensityMatrix(dim=psi.dim, matrix=np.outer(amp, amp.conj()))


def max_entangled(local_dim: int) -> PureState:
    """Maximally entangled state (1/sqrt(d)) sum_i |ii> on d x d.

    Composite index convention is A-major: (i, k) -> i*d + k.
    """
    d = local_dim
    amp = np.zeros(d * d, dtype=np.complex128)
    amp[:: d + 1] = 1.0 / np.sqrt(d)
    return PureState(dim=d * d, amplitudes=amp)


def werner(params: WernerParams) -> DensityMatrix:
    """Werner family p |Phi><Phi| + (1-p) I/d^2.

    The pure component is pinned to the maximally entangled state, the
    extremal case for partial-transpose negativity; this is what makes the
    d=2 threshold p = 1/3 come out exactly.
    """
    d = params.local_dim
    p = params.mixing
    amp = max_entangled(d).amplitudes
    proj = np.outer(amp, amp.conj())
    eye = np.eye(d * d, dtype=np.complex128) / (d * d)
    return DensityMatrix(dim=d * d, matrix=p * proj + (1.0 - p) * eye)


def convex_mix(p: float, a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    """Convex combination p*a + (1-p)*b."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimension mismatch: {a.dim} vs {b.dim}")
    return DensityMatrix(dim=a.dim, matrix=p * a.matrix + (1.0 - p) * b.matrix)


def sample_hs(rng: np.random.Generator, dim: int) -> DensityMatrix:
    """One Hilbert-Schmidt random state from an existing generator stream."""
    g = complex_ginibre(rng, dim)
    w = g @ g.conj().T
    return DensityMatrix(dim=dim, matrix=w / np.trace(w).real)


def sample_hs_random(dim: int, seed: int) -> DensityMatrix:
    """Seeded Hilbert-Schmidt random state rho = G G† / Tr(G G†)."""
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    return sample_hs(np.random.default_rng(seed), dim)


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


def _psd_bounds(candidates: np.ndarray, scale: np.ndarray,
                radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Rows of a shell-candidate stack that closed-form bounds certify as
    accepted, and rows they certify as rejected (see shell_batch)."""
    count, dim = candidates.shape[:2]
    if radius <= 1.0 / np.sqrt(dim * (dim - 1)):
        return np.ones(count, dtype=bool), np.zeros(count, dtype=bool)
    accept = scale <= 1.0
    lowest_diagonal = np.diagonal(candidates, axis1=1, axis2=2).real.min(axis=1)
    reject = ~accept & (lowest_diagonal < -SHELL_PSD_TOL - SHELL_BOUND_MARGIN)
    return accept, reject


def shell_batch(rng: np.random.Generator, dim: int, radius: float, count: int) -> np.ndarray:
    """`count` attempts at states on the shell of HS radius `radius` around I/N.

    Each attempt draws an HS-random state rho0, rescales its traceless part
    Delta = rho0 - I/N to the target norm, and is rejected when the result
    leaves the PSD cone (smallest eigenvalue below -SHELL_PSD_TOL).  Returns
    the accepted states as a (k, N, N) stack, each Hermitian to the bit and
    of unit trace.

    The attempts are stacked.  Every stacked operation is elementwise or
    per matrix, and the trace and norm reductions (`_stacked_traces`,
    `_stacked_norms`) sum each sample in the order `np.trace` and
    `np.linalg.norm` do, so the result and the generator stream are
    bit-identical to `count` single attempts.

    Closed-form bounds settle most PSD decisions without an eigen-solve.
    With s = radius / ||Delta||, a candidate is
    I/N + s Delta = (1 - s) I/N + s rho0, so:

    - s <= 1 makes it a convex mix of PSD matrices: certified accept.
    - radius <= 1/sqrt(N(N-1)), the spectral floor, is a certified accept
      for every row: a traceless Hermitian matrix of HS norm r has no
      eigenvalue below -r sqrt((N-1)/N), which is -1/N there.
    - The smallest eigenvalue is at most the smallest diagonal entry, so a
      diagonal entry below -SHELL_PSD_TOL - SHELL_BOUND_MARGIN is a
      certified reject.

    Rounding moves the accepts' bound by order N * eps, and the reject
    clears the threshold by SHELL_BOUND_MARGIN, both far inside the
    eigen-solve's own tolerance, so each settled row gets the verdict the
    eigen-solve would give.  Only the remaining rows go through one stacked
    `eigvalsh`.
    """
    re, im = _box_muller(rng.random((count, 2, dim * dim)))
    g = (re + 1j * im).reshape(count, dim, dim)
    w = g @ g.conj().transpose(0, 2, 1)
    rho0 = w / _stacked_traces(w)[:, None, None]
    # Symmetrized as DensityMatrix stores an HS state.  The steps below
    # (subtract a real diagonal, scale by a real factor, add it back) keep
    # every candidate Hermitian to the bit, so none needs a second pass.
    rho0 = (rho0 + rho0.conj().transpose(0, 2, 1)) / 2

    eye = np.eye(dim, dtype=np.complex128) / dim
    delta = rho0 - eye
    scale = radius / _stacked_norms(delta)
    candidates = eye + scale[:, None, None] * delta
    keep, reject = _psd_bounds(candidates, scale, radius)
    undecided = ~(keep | reject)
    if undecided.any():
        keep[undecided] = np.linalg.eigvalsh(candidates[undecided])[:, 0] >= -SHELL_PSD_TOL
    accepted = candidates[keep]

    trace_dev = float(np.max(np.abs(_stacked_traces(accepted) - 1.0), initial=0.0))
    if trace_dev > DENSITY_TRACE_TOL:
        raise ValueError(f"shell sample trace deviates from 1 by {trace_dev:.3e}")
    return accepted


def shell_attempt(rng: np.random.Generator, dim: int, radius: float) -> DensityMatrix | None:
    """One shell attempt (see shell_batch); None when it leaves the PSD cone."""
    accepted = shell_batch(rng, dim, radius, 1)
    return DensityMatrix(dim=dim, matrix=accepted[0]) if len(accepted) else None


def sample_on_shell(dim: int, radius: float, seed: int,
                    max_rejects: int = DEFAULT_MAX_REJECTS) -> DensityMatrix:
    """Seeded state at HS distance `radius` (to 1e-12) from I/N.

    Raises ShellUnreachable after `max_rejects` failed attempts; shells near
    the outer radius sqrt((N-1)/N) are overwhelmingly non-PSD, so failing
    loudly beats spinning.
    """
    outer = np.sqrt((dim - 1) / dim)
    if not 0.0 < radius < outer:
        raise ValueError(f"radius must lie in (0, {outer:.6f}), got {radius}")
    rng = np.random.default_rng(seed)
    for _ in range(max_rejects):
        state = shell_attempt(rng, dim, radius)
        if state is not None:
            return state
    raise ShellUnreachable(
        f"no PSD state found on shell r={radius} for N={dim} after {max_rejects} attempts"
    )
