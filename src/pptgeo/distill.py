"""Heuristic search for single-copy distillability witnesses.

A state is 1-distillable when some vector of Schmidt rank at most 2 has a
negative expectation against the partial transpose.  Complete search is
intractable, so this module runs an alternating subspace minimization: the
partial transpose is compressed to S (x) T blocks with dim(S) = dim(T) = 2,
whose ground vectors automatically have Schmidt rank <= 2, and the
subspaces are re-fit to each candidate's local supports by a QR of the
reshaped ground vector.  All restarts run as one stack: each alternating
step is two stacked eigen-solves and two stacked QRs over the restarts
still running, the second eigen-solve also giving the step's value, and
the compressions contract the reshaped partial transpose with the
subspaces directly.  Each restart keeps its own seeded start and stops on
its own once a step lowers its value by a relative STOP_RTOL or less.

The result is two-sided, at the one NPT threshold `bipartite.PPT_TOL`.
`found` certifies a witness (re-checkable from the returned vector).  A
miss is certified as well when the input is PPT, i.e. its partial
transpose has no eigenvalue below -PPT_TOL: every Rayleigh quotient of
rho^PT is at least its smallest eigenvalue, so no vector of any Schmidt
rank is a witness, and such inputs skip the search.  Only a miss of the
search on an NPT input is inconclusive, never a proof of
non-distillability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bipartite import PPT_TOL, BipartiteSplit, partial_transpose
from .states import DensityMatrix, PureState, standard_normals

DEFAULT_RESTARTS = 64
DEFAULT_ITERS = 50
STOP_RTOL = 1e-8


@dataclass(frozen=True, eq=False)
class WitnessResult:
    """Outcome of a witness search: found, certified absent, or inconclusive.

    found: a witness was found; it is present in `witness` and re-checkable.
    certified: the verdict is proved.  True whenever found; on a miss, True
    means no Schmidt-rank-2 witness exists and False that the search was
    inconclusive.

    value: when no search ran (restarts_used == 0) it is the smallest
    eigenvalue of rho^PT, a lower bound on every Schmidt-rank-2 quotient.
    On a certified miss it is >= -PPT_TOL; on a 2xN split, where every
    vector has Schmidt rank <= 2, it is the exact minimum.  After a search
    it is the best <psi| rho^PT |psi> seen over all restarts (a Rayleigh
    quotient, so never below that eigenvalue).
    """

    found: bool
    value: float
    witness: PureState | None
    restarts_used: int
    certified: bool


def _start_subspaces(seed: int, restarts: int, m: int) -> np.ndarray:
    """Stacked random m x 2 isometries; restart k draws from default_rng(seed + k)."""
    g = np.stack([standard_normals(np.random.default_rng(seed + k), 4 * m)
                  for k in range(restarts)])
    z = (g[:, : 2 * m] + 1j * g[:, 2 * m :]).reshape(restarts, m, 2)
    return np.linalg.qr(z)[0]


def _compress(t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x† t x on the first tensor factor, for each restart.

    t is an operator on C^m (x) C^c of shape (m, c, m, c), or a stack
    (R, m, c, m, c) of them; x is a stack (R, m, 2) of isometries.  Returns
    M[r, p, a, q, b] = sum_ij conj(x[r, i, p]) t[r, i, a, j, b] x[r, j, q].
    """
    r, m = x.shape[:2]
    c = t.shape[-1]
    y = t.swapaxes(-1, -2).reshape(*t.shape[:-4], m * c * c, m) @ x
    z = x.conj().swapaxes(1, 2) @ y.reshape(r, m, c * c * 2)
    return z.reshape(r, 2, c, c, 2).swapaxes(3, 4)


def _alternating_search(sigma: np.ndarray, m: int, n: int, a: np.ndarray,
                        iters: int) -> tuple[np.ndarray, np.ndarray]:
    """All restarts of the alternating minimization, stacked.

    `a` holds each restart's starting m x 2 subspace A.  Each step takes the
    ground vector of (A (x) I)† sigma (A (x) I) and refits B to its support
    on the second factor, then takes the ground vector of
    (I (x) B)† sigma (I (x) B) and refits A to its support on the first.
    Both refits are a QR of the reshaped ground vector: a compression's
    ground value and the support of its ground vector do not depend on the
    basis chosen for a subspace, only on its span.  The second ground vector
    lies in A (x) B by construction (its coefficients there are the QR's
    R factor), so its eigenvalue is the restart's value, the ground value of
    (A (x) B)† sigma (A (x) B), and needs no third eigen-solve.  Each refit
    keeps the previous ground vector inside the new compression, so a
    restart's value never rises.  B needs no start, since every step refits
    it from A first.  A restart leaves the stack once a step lowers its
    value by at most max(STOP_RTOL |value|, 1e-14), or after `iters` steps.
    Returns each restart's final value and ground vector.
    """
    restarts = a.shape[0]
    s4 = sigma.reshape(m, n, m, n)
    s4_b = s4.transpose(1, 0, 3, 2)  # B's factor first
    values, prev = np.empty(restarts), np.full(restarts, np.inf)
    final_a = np.empty((restarts, m, 2), np.complex128)
    final_b = np.empty((restarts, n, 2), np.complex128)
    final_v = np.empty((restarts, 2, 2), np.complex128)
    active = np.arange(restarts)
    for _ in range(iters):
        r = active.size
        _, va = np.linalg.eigh(_compress(s4, a).reshape(r, 2 * n, 2 * n))
        b = np.linalg.qr(va[:, :, 0].reshape(r, 2, n).swapaxes(1, 2))[0]
        mb = _compress(s4_b, b).transpose(0, 2, 1, 4, 3)  # (r, i, p, j, q)
        wb, vb = np.linalg.eigh(mb.reshape(r, 2 * m, 2 * m))
        a, coef = np.linalg.qr(vb[:, :, 0].reshape(r, m, 2))
        value = wb[:, 0]
        values[active], final_a[active], final_b[active], final_v[active] = value, a, b, coef
        done = prev[active] - value <= np.maximum(STOP_RTOL * np.abs(value), 1e-14)
        prev[active] = value
        active, a = active[~done], a[~done]
        if active.size == 0:
            break
    vecs = np.einsum("rip,rjq,rpq->rij", final_a, final_b, final_v)
    return values, vecs.reshape(restarts, m * n)


def find_schmidt2_witness(rho: DensityMatrix, split: BipartiteSplit,
                          restarts: int = DEFAULT_RESTARTS,
                          iters: int = DEFAULT_ITERS,
                          seed: int = 0) -> WitnessResult:
    """Search for a Schmidt-rank-<=2 vector with <psi| rho^PT |psi> < -PPT_TOL.

    The partial transpose is eigen-solved once first.  When its smallest
    eigenvalue is at least -PPT_TOL (the threshold at which `is_ppt` and
    `classify` call a state PPT), no witness exists and the result is a
    certified miss with no restarts run.  When either factor is 2-dimensional every vector
    has Schmidt rank <= 2, so the PT ground state from that same solve is
    the witness and the search is exact.  Otherwise
    `restarts` independent alternating minimizations, started from derived
    seeds (seed + restart index), run together as one stacked batch; each
    step refits both subspaces by QR and takes its value from the second of
    its two eigen-solves.  Each restart stops on its own once a step lowers
    its value by at most max(STOP_RTOL |value|, 1e-14), or after `iters`
    steps.  The best computed value wins, ties to the lowest restart index;
    a miss there is inconclusive.
    """
    if restarts < 1 or iters < 1:
        raise ValueError("restarts and iters must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    split.check_dim(rho.dim)
    m, n = split.m, split.n
    sigma = partial_transpose(rho, split)

    exact = min(m, n) == 2
    if exact:
        w, v = np.linalg.eigh(sigma)
    else:
        w = np.linalg.eigvalsh(sigma)
    lowest = float(w[0])
    if lowest >= -PPT_TOL:
        return WitnessResult(found=False, value=lowest, witness=None, restarts_used=0,
                             certified=True)

    if exact:
        best_value, best_vec = lowest, v[:, 0]
        used = 0
    else:
        values, vecs = _alternating_search(sigma, m, n,
                                           _start_subspaces(seed, restarts, m), iters)
        best = int(np.argmin(values))
        best_value, best_vec = float(values[best]), vecs[best]
        used = restarts

    found = best_value < -PPT_TOL
    witness = None
    if found:
        amp = best_vec / np.linalg.norm(best_vec)
        witness = PureState(dim=rho.dim, amplitudes=amp)
    return WitnessResult(found=found, value=best_value, witness=witness, restarts_used=used,
                         certified=found)


def witness_expectation(rho: DensityMatrix, split: BipartiteSplit, psi: PureState) -> float:
    """Recompute <psi| rho^PT |psi> from scratch, for independent verification."""
    sigma = partial_transpose(rho, split)
    amp = psi.amplitudes
    return float(np.real(amp.conj() @ sigma @ amp))
