"""Validation of the matrices that enter pptgeo, and the HS distance.

Matrices are square ``complex128`` ndarrays with finite entries.
Hermiticity is checked to ``HERMITICITY_TOL`` in max-abs and then made
exact by symmetrizing, so a validated matrix equals its conjugate
transpose bit for bit.  States are validated once, where they enter
(`DensityMatrix`, JSON load); partial transposes of them stay Hermitian to
the bit, so the modules downstream call numpy's eigen-solvers directly.
"""

from __future__ import annotations

import numpy as np

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
