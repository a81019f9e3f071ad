"""Tensor-structure operations: partial transpose, Schmidt data, PPT tests.

Composite index convention, fixed package-wide: basis state (i, k) of an
m x n split maps to row/column i*n + k (A-major).  The partial transpose
always acts on the second (B) factor; transposing A instead yields the full
transpose of the same matrix and hence the identical spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import DimensionMismatch
from .states import DensityMatrix, PureState

RANK_TOL = 1e-10
# The spectral route computes coefficients as sqrt(eig(C C†)), which cannot
# resolve singular values below sqrt(machine eps); eigenvalues under this
# floor are numerical noise and are treated as exact zeros.
EIG_NOISE_FLOOR = 1e-14
# A state is PPT when its smallest partial-transpose eigenvalue is >= -PPT_TOL.
PPT_TOL = 1e-9


@dataclass(frozen=True)
class BipartiteSplit:
    """Tensor factorization H = H_m (x) H_n."""

    m: int
    n: int

    def __post_init__(self):
        if self.m < 2 or self.n < 2:
            raise ValueError(f"both factors must be >= 2, got {self.m} x {self.n}")

    @property
    def dim(self) -> int:
        return self.m * self.n

    def check_dim(self, dim: int) -> None:
        if self.dim != dim:
            raise DimensionMismatch(
                f"split {self.m}x{self.n} does not factor dimension {dim}"
            )


def _matrix_of(rho) -> np.ndarray:
    return rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=np.complex128)


def partial_transpose(rho, split: BipartiteSplit, out: np.ndarray | None = None) -> np.ndarray:
    """Transpose the B indices: out[(i,k),(j,l)] = in[(i,l),(j,k)].

    Accepts a DensityMatrix, a Hermitian matrix or a (k, N, N) stack of
    them; returns a plain Hermitian ndarray of the same shape (the result
    generally leaves the PSD cone), written into `out` (a C-contiguous
    complex array of that shape) when given.  Entry permutation only, so
    the trace is preserved exactly.
    """
    mat = _matrix_of(rho)
    split.check_dim(mat.shape[-1])
    m, n = split.m, split.n
    swapped = mat.reshape(*mat.shape[:-2], m, n, m, n).swapaxes(-1, -3)
    if out is None:
        return swapped.reshape(mat.shape)
    np.copyto(out.reshape(swapped.shape), swapped)
    return out


@dataclass(frozen=True, eq=False)
class SchmidtDecomposition:
    """Schmidt coefficients of psi = sum_i alpha_i e_i (x) f_i.

    coefficients: all min(m, n) Schmidt coefficients, nonincreasing;
    rank counts those above RANK_TOL.
    """

    coefficients: np.ndarray
    rank: int


def schmidt(psi: PureState, split: BipartiteSplit) -> SchmidtDecomposition:
    """Schmidt coefficients and rank via the spectral route.

    The eigenvalues of C C† (m x m, C the reshaped amplitude matrix) are the
    squared coefficients.
    """
    split.check_dim(psi.dim)
    m, n = split.m, split.n
    c = psi.amplitudes.reshape(m, n)

    # C C† is not Hermitian to the bit, so its symmetrized copy is solved.
    # eigh rather than eigvalsh: reports print the coefficients' bits.
    gram = c @ c.conj().T
    w = np.linalg.eigh((gram + gram.conj().T) / 2)[0]  # ascending
    weights = np.clip(w[::-1][:min(m, n)], 0.0, None)
    weights[weights < EIG_NOISE_FLOOR] = 0.0
    alpha = np.sqrt(weights)
    return SchmidtDecomposition(coefficients=alpha, rank=int(np.sum(alpha > RANK_TOL)))


def pt_spectrum_analytic(sd: SchmidtDecomposition, split: BipartiteSplit) -> np.ndarray:
    """Closed-form partial-transpose spectrum of a pure state, sorted ascending.

    For Schmidt coefficients alpha_1..alpha_r the PT of |psi><psi| has
    eigenvalues alpha_i^2 (i <= r), +/- alpha_i alpha_j (i < j <= r), and 0
    with multiplicity min(m,n)|m-n| + min(m,n)^2 - r^2.  The multiplicities
    always total m*n; the count is asserted defensively.
    """
    m, n = split.m, split.n
    r = sd.rank
    zero_mult = min(m, n) * abs(m - n) + min(m, n) ** 2 - r * r
    alpha = sd.coefficients[:r]
    values = list(alpha**2)
    for i in range(r):
        for j in range(i + 1, r):
            values.append(alpha[i] * alpha[j])
            values.append(-alpha[i] * alpha[j])
    values.extend([0.0] * zero_mult)
    out = np.sort(np.asarray(values, dtype=np.float64))
    assert out.size == m * n
    return out


class PptCheck(NamedTuple):
    ppt: bool
    min_pt_eigenvalue: float


def is_ppt(rho: DensityMatrix, split: BipartiteSplit) -> PptCheck:
    """PPT test: positive iff the partial transpose stays in the PSD cone."""
    lo = float(min_pt_eigenvalues(rho.matrix[None], split)[0])
    return PptCheck(ppt=lo >= -PPT_TOL, min_pt_eigenvalue=lo)


def min_pt_eigenvalues(states: np.ndarray, split: BipartiteSplit) -> np.ndarray:
    """Smallest partial-transpose eigenvalue of each state in a (k, N, N) stack.

    One stacked eigen-solve and no re-validation: the stack must hold
    exactly Hermitian matrices, as `DensityMatrix` and `states.shell_states`
    store them.  The partial transpose only permutes entries, so it is
    Hermitian to the bit as well.
    """
    return np.linalg.eigvalsh(partial_transpose(states, split))[:, 0]


def pure_pt_spectra(amplitudes: np.ndarray, split: BipartiteSplit) -> np.ndarray:
    """Ascending partial-transpose spectra of the pure states in a (k, N)
    amplitude stack, by one stacked eigen-solve of the explicit projectors."""
    projectors = amplitudes[:, :, None] * amplitudes.conj()[:, None, :]
    return np.linalg.eigvalsh(partial_transpose(projectors, split))
