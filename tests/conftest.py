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


def shell_attempt_at(dim, target, seed):
    """Uniforms (1, 2, N^2) of one shell attempt drawn from default_rng(seed),
    and the radius at which its candidate's smallest eigenvalue is `target`,
    to rounding: at radius r the candidate is I/N + r D, with D the traceless
    part of its state at unit HS norm, so that eigenvalue is
    1/N + r lambda_min(D)."""
    u = np.random.default_rng(seed).random((1, 2, dim * dim))
    unit = reference_shell_attempt(np.random.default_rng(seed), dim, 1.0, psd_tol=np.inf)
    return u, (target - 1 / dim) / (np.linalg.eigvalsh(unit)[0] - 1 / dim)


def reference_min_pt_eigenvalue(mat, m, n):
    """Smallest eigenvalue of the symmetrized index-by-index partial transpose."""
    pt = reference_partial_transpose(mat, m, n)
    return float(np.linalg.eigvalsh((pt + pt.conj().T) / 2)[0])


def reference_alternate(sigma, m, n, rng, iters):
    """One witness-search restart, computed alone with numpy only.

    The single-restart alternating minimization the batched search replaced,
    with B refit to the ground vector's support (the rows of its right
    singular vectors, unconjugated): random m x 2 and n x 2 isometries (QR
    of Box-Muller complex Gaussians, A drawn before B), then up to `iters`
    steps that refit B from the ground vector of (A (x) I)† sigma (A (x) I),
    refit A from that of (I (x) B)† sigma (I (x) B), and take the ground
    pair of the 4 x 4 compression (A (x) B)† sigma (A (x) B).  Both refits
    are SVDs and the value comes from its own 4 x 4 eigen-solve, so this
    checks the library's QR refits and its value taken from the second
    eigen-solve independently.  Stops early once a step lowers the value
    by at most max(1e-8 |value|, 1e-14).  Returns (value, vector,
    converged), where converged says whether that test fired before the
    `iters` cap.
    """
    def isometry(dim):
        u = rng.random((2, 2 * dim))
        r = np.sqrt(-2.0 * np.log(1.0 - u[0]))
        g = np.concatenate([r * np.cos(2.0 * np.pi * u[1]), r * np.sin(2.0 * np.pi * u[1])])
        z = (g[: 2 * dim] + 1j * g[2 * dim :]).reshape(dim, 2)
        return np.linalg.qr(z)[0][:, :2]

    a = np.eye(m, dtype=np.complex128) if m == 2 else isometry(m)
    b = np.eye(n, dtype=np.complex128) if n == 2 else isometry(n)
    eye_m = np.eye(m, dtype=np.complex128)
    eye_n = np.eye(n, dtype=np.complex128)
    prev = np.inf
    for _ in range(iters):
        if n > 2:
            ka = np.kron(a, eye_n)
            _, va = np.linalg.eigh(ka.conj().T @ sigma @ ka)
            phi = va[:, 0].reshape(a.shape[1], n)
            _, _, vh = np.linalg.svd(phi, full_matrices=False)
            b = vh.T[:, :2]
        if m > 2:
            kb = np.kron(eye_m, b)
            _, vb = np.linalg.eigh(kb.conj().T @ sigma @ kb)
            phi = vb[:, 0].reshape(m, b.shape[1])
            u, _, _ = np.linalg.svd(phi, full_matrices=False)
            a = u[:, :2]
        k = np.kron(a, b)
        w, v = np.linalg.eigh(k.conj().T @ sigma @ k)
        value, vec = float(w[0]), k @ v[:, 0]
        if prev - value <= max(1e-8 * abs(value), 1e-14):
            return value, vec, True
        prev = value
    return value, vec, False


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


@pytest.fixture
def fresh_helpers():
    """Close the shell-scan helper pool before and after the test.

    Helpers run the code as loaded when they were forked.  A test that
    patches code they run closes the pool again after patching, so its
    helpers are forked under the patch, and this fixture makes sure none of
    them outlives the test.
    """
    from pptgeo import workers

    workers._POOL.close()
    yield
    workers._POOL.close()
