"""Validation of the matrices that enter pptgeo, the HS distance, and a
stacked Cholesky certificate for the sign of a smallest eigenvalue.

Matrices are square ``complex128`` ndarrays with finite entries.
Hermiticity is checked to ``HERMITICITY_TOL`` in max-abs and then made
exact by symmetrizing, so a validated matrix equals its conjugate
transpose bit for bit.  States are validated once, where they enter
(`DensityMatrix`, JSON load); partial transposes of them stay Hermitian to
the bit, so the modules downstream call numpy's eigen-solvers directly,
or bound a smallest eigenvalue by Cholesky factorization (`cholesky_passes`).
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import _umath_linalg

HERMITICITY_TOL = 1e-10


class DimensionMismatch(ValueError):
    """Operands do not have compatible dimensions."""


class NotHermitian(ValueError):
    """Matrix fails the Hermitian symmetry tolerance."""


def as_hermitian(a) -> np.ndarray:
    """Validate a square finite matrix as Hermitian to HERMITICITY_TOL
    (max-abs) and return it symmetrized as complex128.

    Symmetrizing (H + H†)/2 after the check removes the round-off
    asymmetry of the input, so the result is Hermitian to the bit.
    """
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    dev = float(np.max(np.abs(m - m.conj().T)))
    if dev > HERMITICITY_TOL:
        raise NotHermitian(f"max |H - H†| = {dev:.3e} exceeds tolerance {HERMITICITY_TOL:.1e}")
    return (m + m.conj().T) / 2


def hs_distance(a, b) -> float:
    """Euclidean (Hilbert-Schmidt) distance sqrt(Tr (A-B)^2) between Hermitian matrices."""
    ah = as_hermitian(a)
    bh = as_hermitian(b)
    if ah.shape != bh.shape:
        raise DimensionMismatch(f"dimension mismatch: {ah.shape} vs {bh.shape}")
    return float(np.linalg.norm(ah - bh))


def cholesky_margin(dim: int) -> float:
    """Distance from a threshold t at which `cholesky_passes` settles, for a
    Hermitian N x N matrix A of unit trace and HS norm at most 1 (a shell
    candidate, a state or its partial transpose), the same side of t as
    `np.linalg.eigvalsh(A)[0]`; N >= 4.

    Let u = 2^-53 and B = A - s I with |s| <= 1, so tr B <= 1 + N and every
    diagonal entry of B lies in [-2, 2].

    - Success: a Cholesky factorization that runs to completion gives
      L L† = B + dB with |dB| <= gamma_{N+1} |L| |L†| (Higham, Accuracy and
      Stability of Numerical Algorithms, Thms 10.3 and 10.5), and
      ||dB||_2 <= gamma_{N+1} tr(L L†).  So
      lambda_min(A) >= s - (N+1) u tr B, which is at least s - 2 N^2 u.
    - Failure: if 20 N^1.5 (N+1) u < lambda_min(D^-1/2 B D^-1/2), with
      D = diag B, the factorization runs to completion (Demmel, "On
      floating point errors in Cholesky", LAPACK Working Note 14, 1989;
      Higham Thm 10.7), and lambda_min(B) <= max diag B times that
      minimum.  So failure gives
      lambda_min(A) < s + 20 N^2.5 u max diag B, at most s + 50 N^2.5 u.

    Rounding the shifted diagonal and complex arithmetic move both by a
    small multiple of u.  The margin 100 N^2.5 u (3.6e-13 at N = 4,
    8.6e-11 at N = 36) exceeds both by 50 N^2.5 u, which covers the error
    of `eigvalsh` itself: it is backward stable, so its smallest eigenvalue
    lies within c N^2 u ||A||_2 of the exact one for a small constant c
    (Householder tridiagonalization), with ||A||_2 <= 1.  Hence passing at
    t + margin proves `eigvalsh(A)[0] > t`, and failing at t - margin
    proves `eigvalsh(A)[0] < t`.
    """
    return 100.0 * dim**2.5 * np.finfo(np.float64).eps / 2


def cholesky_passes(stack: np.ndarray, shift: float, rows: np.ndarray | None = None,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Whether A - shift I passes a Cholesky factorization, for each matrix A
    of a (k, N, N) Hermitian stack, or of its matrices at the indices `rows`:
    a bool per matrix tested.  The matrices are copied into `out` (a complex
    stack at least as long; by default a fresh one) and factored there.

    One call of numpy's stacked kernel (`np.linalg.cholesky` calls the
    same one), which leaves NaN in the factor of a matrix that fails where
    `np.linalg.cholesky` would raise for the whole stack.  `cholesky_margin`
    says what a pass or a failure proves about the smallest eigenvalue.
    """
    count = len(stack) if rows is None else len(rows)
    if not count:
        return np.zeros(0, dtype=bool)
    if out is None:
        out = np.empty((count, *stack.shape[1:]), dtype=np.complex128)
    shifted = out[:count]
    if rows is None:
        np.copyto(shifted, stack)
    else:
        # mode="clip" writes into `out` directly; "raise" would stage a copy.
        np.take(stack, rows, axis=0, out=shifted, mode="clip")
    dim = shifted.shape[-1]
    shifted.reshape(count, dim * dim)[:, :: dim + 1] -= shift
    with np.errstate(invalid="ignore"):
        factor = _umath_linalg.cholesky_lo(shifted, signature="D->D", out=shifted)
    return ~np.isnan(factor[:, -1, -1].real)

