import numpy as np
import pytest


def random_hermitian(rng, dim, scale=1.0):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * (g + g.conj().T) / 2


def reference_partial_transpose(mat, m, n):
    """Index-by-index partial transpose, independent of the library's reshape route.

    out[(i,k),(j,l)] = in[(i,l),(j,k)] with composite index (i,k) -> i*n + k.
    """
    out = np.zeros_like(mat)
    for i in range(m):
        for j in range(m):
            for k in range(n):
                for l in range(n):
                    out[i * n + k, j * n + l] = mat[i * n + l, j * n + k]
    return out


def reference_shell_attempt(rng, dim, radius, psd_tol=1e-12):
    """One shell attempt, drawn and computed one sample at a time with numpy only.

    Box-Muller on PCG64 uniforms (u1 for all N^2 pairs, then u2), the
    symmetrized HS state G G† / Tr(G G†), its traceless part rescaled to HS
    norm `radius`, rejected when the smallest eigenvalue is below -psd_tol.
    Returns the symmetrized accepted matrix, or None.
    """
    n2 = dim * dim
    u1 = 1.0 - rng.random(n2)
    u2 = rng.random(n2)
    r = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    g = np.concatenate([r * np.cos(angle), r * np.sin(angle)])
    g = (g[:n2] + 1j * g[n2:]).reshape(dim, dim)
    w = g @ g.conj().T
    rho0 = w / np.trace(w).real
    rho0 = (rho0 + rho0.conj().T) / 2
    eye = np.eye(dim, dtype=np.complex128) / dim
    delta = rho0 - eye
    candidate = eye + radius / float(np.linalg.norm(delta)) * delta
    if float(np.linalg.eigvalsh(candidate)[0]) < -psd_tol:
        return None
    return (candidate + candidate.conj().T) / 2


def reference_min_pt_eigenvalue(mat, m, n):
    """Smallest eigenvalue of the symmetrized index-by-index partial transpose."""
    pt = reference_partial_transpose(mat, m, n)
    return float(np.linalg.eigvalsh((pt + pt.conj().T) / 2)[0])


def werner_min_pt_oracle(d, p):
    """Closed-form minimum PT eigenvalue of the d x d Werner family."""
    return (1 - p) / (d * d) - p / d


def reduced_a_eigenvalues(amplitudes, m, n):
    """Eigenvalues of the A-side reduced density matrix, by explicit index sums."""
    rho = np.outer(amplitudes, amplitudes.conj())
    red = np.zeros((m, m), dtype=np.complex128)
    for i in range(m):
        for j in range(m):
            for k in range(n):
                red[i, j] += rho[i * n + k, j * n + k]
    return np.linalg.eigvalsh(red)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
