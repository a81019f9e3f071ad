"""The three workloads: their inputs, one op each, and the check of every output.

Every input is made here from the benchmark's --seed; pptgeo receives only
the generated inputs.  Each workload cycles over a fixed pattern of `cycle`
ops (the dimensions or input kinds it mixes), and a run always ends on a
whole cycle, so every run weighs the kinds alike.

`op(i)` is the timed call; op `warmup` also runs once, untimed, in each
set-up.  `check(i, output)` runs outside the timing, raises CheckFailed
when the output is wrong, and returns the bytes whose SHA-256 digest is
recorded for the op.
"""

from __future__ import annotations

import math
import re
from types import SimpleNamespace

import numpy as np

MAX_OPS = 100_000
_TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')


class CheckFailed(Exception):
    """An op's output failed the benchmark's output check."""


def op_seeds(seed: int, tag: int) -> np.ndarray:
    """Per-op seeds for pptgeo, drawn from the benchmark's own generator."""
    return np.random.default_rng([seed, tag]).integers(0, 2**31 - 1, size=MAX_OPS)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# claim: in-process `pptgeo claim-check`, d cycling 2 -> 3 -> 4


def check_claim(harness, path, d: int, seed: int) -> bytes:
    """Reload a claim-check report through pptgeo (which re-verifies the
    serialized counterexample) and check the verdict and thresholds."""
    try:
        report = harness.load_claim_report(path)
    except (ValueError, KeyError) as exc:
        raise CheckFailed(f"claim report does not re-verify: {exc}") from exc
    _require(report["qudit_dim"] == d, f"report is for d={report['qudit_dim']}, expected {d}")
    _require(report["header"].get("seed") == seed, "report seed does not match the op seed")
    expected = "CONSISTENT" if d == 2 else "COUNTEREXAMPLE_FOUND"
    _require(report["verdict"] == expected, f"verdict {report['verdict']} at d={d}, expected {expected}")
    p_star = report["werner_sweep"]["p_star"]
    _require(abs(p_star - 1.0 / (d + 1)) <= 1e-9, f"p_star {p_star!r} is not 1/(d+1) within 1e-9")
    _require(report["spectrum_check"]["passed"] is True, "spectrum check did not pass")
    return _TIMESTAMP.sub('"timestamp": ""', path.read_text()).encode()


class Claim:
    name = "claim"
    cycle = 3
    warmup = 0

    def __init__(self, mods: SimpleNamespace, seed: int, tiny: bool, workdir):
        self.mods = mods
        self.seeds = op_seeds(seed, 1)
        self.samples = 20 if tiny else None  # None: the CLI default of 2000 per shell
        self.out = workdir / "claim-op.json"

    def _args(self, i: int):
        return 2 + i % 3, int(self.seeds[i])

    def op(self, i: int):
        d, seed = self._args(i)
        argv = ["claim-check", "--d", str(d), "--seed", str(seed), "--out", str(self.out)]
        if self.samples is not None:
            argv += ["--samples", str(self.samples)]
        return self.mods.cli.main(argv)

    def check(self, i: int, output) -> bytes:
        _require(output == 0, f"claim-check exited with {output}")
        d, seed = self._args(i)
        return check_claim(self.mods.harness, self.out, d, seed)


# ---------------------------------------------------------------------------
# landscape: the library path of scripts/map_ppt_fraction.py, one shell per op


def floor_radius(total: int) -> float:
    """Spectral-floor radius 1/sqrt(N(N-1)): inside it every state is PSD and PPT."""
    return 1.0 / math.sqrt(total * (total - 1))


def check_shell_csv(text: str, total: int, split: str, radius: float, samples: int,
                    seed: int) -> bytes:
    """Check a one-shell `shells_to_csv` report against its inputs and the
    invariants ppt_count <= accepted <= samples and, at or inside the
    spectral floor, accepted == ppt_count == samples."""
    lines = text.splitlines()
    header = dict(line[2:].split("=", 1) for line in lines if line.startswith("# "))
    _require(header.get("N") == str(total) and header.get("split") == split
             and header.get("seed") == str(seed), f"report header {header} does not match the op")
    body = [line for line in lines if not line.startswith("#")]
    _require(body[:1] == ["radius,samples,accepted,ppt_count,ppt_fraction,min_pt_eig"],
             "unexpected CSV columns")
    _require(len(body) == 2, f"expected one shell row, got {len(body) - 1}")
    fields = body[1].split(",")
    row_radius, row_samples = float(fields[0]), int(fields[1])
    accepted, ppt_count = int(fields[2]), int(fields[3])
    _require(row_radius == radius, f"row radius {row_radius!r} is not the requested {radius!r}")
    _require(row_samples == samples, f"row samples {row_samples} is not {samples}")
    _require(0 <= ppt_count <= accepted <= samples,
             f"need ppt_count <= accepted <= samples, got {ppt_count}, {accepted}, {samples}")
    if radius <= floor_radius(total):
        _require(accepted == samples and ppt_count == samples,
                 f"shell {radius} is inside the spectral floor but accepted={accepted}, "
                 f"ppt_count={ppt_count} of {samples}")
    return text.encode()


class Landscape:
    name = "landscape"
    cycle = 48  # d over {3, 4} times k = 1..24
    warmup = 0
    SHELLS = 24

    def __init__(self, mods: SimpleNamespace, seed: int, tiny: bool, workdir):
        self.mods = mods
        self.seeds = op_seeds(seed, 2)
        self.samples = 20 if tiny else 500
        self.splits = {d: mods.bipartite.BipartiteSplit(d, d) for d in (3, 4)}

    def _args(self, i: int):
        d = (3, 4)[i % 2]
        k = 1 + (i // 2) % self.SHELLS
        total = d * d
        radius = math.sqrt((total - 1) / total) * k / (self.SHELLS + 1)
        return d, total, radius, int(self.seeds[i])

    def op(self, i: int):
        d, total, radius, seed = self._args(i)
        harness = self.mods.harness
        report = harness.shell_scan(total, self.splits[d], [radius],
                                    samples_per_shell=self.samples, base_seed=seed)
        return harness.shells_to_csv(report)

    def check(self, i: int, output) -> bytes:
        d, total, radius, seed = self._args(i)
        return check_shell_csv(output, total, f"{d}x{d}", radius, self.samples, seed)


# ---------------------------------------------------------------------------
# witness: distill.find_schmidt2_witness on states the benchmark draws itself


def _hs_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    w = g @ g.conj().T
    w = (w + w.conj().T) / 2
    return w / np.trace(w).real


def _werner_matrix(d: int, p: float) -> np.ndarray:
    phi = np.zeros(d * d, dtype=np.complex128)
    phi[:: d + 1] = 1.0 / math.sqrt(d)
    return p * np.outer(phi, phi.conj()) + (1.0 - p) * np.eye(d * d) / (d * d)


def _floor_shell_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    delta = _hs_matrix(rng, dim) - np.eye(dim) / dim
    return np.eye(dim) / dim + floor_radius(dim) * delta / np.linalg.norm(delta)


# One cycle of input kinds: (kind, m, n).  HS-random states are NPT and
# floor-shell states PPT; both take ~0.3-1 s per search, and these four set
# ops_per_s and op_tail_ms.  Werner states on either side of 1/(d+1) take
# ~45 ms; there are five of ten, so op_p50_ms falls among them rather than
# on the edge between two groups.  2x4 takes the exact path with no restarts.
WITNESS_KINDS = (
    ("hs", 3, 3), ("werner_ppt", 3, 3), ("floor", 3, 3), ("werner_npt", 3, 3),
    ("hs", 2, 4), ("werner_ppt", 3, 3), ("hs", 3, 4), ("werner_npt", 3, 3),
    ("floor", 3, 3), ("werner_ppt", 3, 3),
)
WITNESS_SET_CYCLES = 12  # 120 states: about as many as one run searches
KNOWN_PPT = ("werner_ppt", "floor")


def witness_inputs(seed: int) -> list[tuple[str, int, int, np.ndarray]]:
    """The fixed-size input set, from the benchmark's own generator only."""
    rng = np.random.default_rng([seed, 3])
    inputs = []
    for _ in range(WITNESS_SET_CYCLES):
        for kind, m, n in WITNESS_KINDS:
            if kind == "hs":
                mat = _hs_matrix(rng, m * n)
            elif kind == "floor":
                mat = _floor_shell_matrix(rng, m * n)
            else:
                p = rng.uniform(0.05, 0.2) if kind == "werner_ppt" else rng.uniform(0.3, 0.6)
                mat = _werner_matrix(m, p)
            inputs.append((kind, m, n, mat))
    return inputs


def _pt_min_eig(matrix: np.ndarray, m: int, n: int) -> float:
    pt = matrix.reshape(m, n, m, n).transpose(0, 3, 2, 1).reshape(m * n, m * n)
    return float(np.linalg.eigvalsh((pt + pt.conj().T) / 2)[0])


def check_witness(mods: SimpleNamespace, kind: str, rho, split, result) -> bytes:
    """One-sided witness check: a found witness must re-verify, and the
    value can never sit below the PT ground energy."""
    value = float(result.value)
    _require(result.found == (value < -1e-10), f"found={result.found} disagrees with value {value!r}")
    _require(value >= _pt_min_eig(rho.matrix, split.m, split.n) - 1e-12,
             f"value {value!r} lies below the minimum PT eigenvalue")
    if kind in KNOWN_PPT:
        _require(not result.found, f"witness found for a PPT {kind} state")
    if kind == "werner_npt":
        _require(result.found, "no witness for a Werner state above 1/(d+1)")
    digest_parts = [f"{bool(result.found)}|{value!r}|{result.restarts_used}|".encode()]
    if result.found:
        _require(result.witness is not None, "found without a witness vector")
        recomputed = mods.distill.witness_expectation(rho, split, result.witness)
        _require(recomputed < -1e-10, f"witness recomputes to {recomputed!r}, not below -1e-10")
        rank = mods.bipartite.schmidt(result.witness, split).rank
        _require(rank <= 2, f"witness has Schmidt rank {rank}")
        digest_parts.append(np.ascontiguousarray(result.witness.amplitudes).tobytes())
    return b"".join(digest_parts)


class Witness:
    name = "witness"
    cycle = len(WITNESS_KINDS)
    warmup = 1  # a Werner state: the cheapest op that runs the restarts

    def __init__(self, mods: SimpleNamespace, seed: int, tiny: bool, workdir):
        self.mods = mods
        self.seeds = op_seeds(seed, 4)
        self.search = {"restarts": 4, "iters": 10} if tiny else {}  # {}: library defaults
        self.inputs = [
            (kind, mods.states.DensityMatrix(dim=m * n, matrix=mat), mods.bipartite.BipartiteSplit(m, n))
            for kind, m, n, mat in witness_inputs(seed)
        ]

    def op(self, i: int):
        _, rho, split = self.inputs[i % len(self.inputs)]
        return self.mods.distill.find_schmidt2_witness(rho, split, seed=int(self.seeds[i]),
                                                       **self.search)

    def check(self, i: int, output) -> bytes:
        kind, rho, split = self.inputs[i % len(self.inputs)]
        return check_witness(self.mods, kind, rho, split, output)


WORKLOADS = {w.name: w for w in (Claim, Landscape, Witness)}
