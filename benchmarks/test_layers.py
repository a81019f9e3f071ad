"""Per-layer timings of the shell sampler, the claim check and the witness search.

Run from the root of a checkout with pytest-benchmark installed:

    python -m pytest benchmarks --benchmark-json BENCH_<label>.json

Tier-1 (`testpaths = ["tests"]`) does not collect these.  Each stage of one
shell chunk is timed on its own, at d = 3 (N = 9, `shell_chunk(9)` = 202
samples a chunk) on the shell at 0.99 of the claimed PPT radius, where PPT
and NPT samples and rejects all occur, with the chunk's stacks staged in one
`ShellWork` as a shell part stages them:

- the uniform draw (`ShellWork.draw`),
- the single-precision screen (`shell_screen`),
- the float64 path on the rows the screen leaves open (`shell_states`),
- the PT decision on the screened candidates (their partial transposes
  and `_pt_tally`),

and, end to end, one whole chunk (`_chunk_tally`), `claim_check(d)` for
d = 2..6 with 2,000 samples per shell, `python -m pptgeo claim-check --d 4`
in a new process (the one timing that pays for first-touch page faults of
the working arrays, and for import and helper start-up), and one restart
of the 3x4 witness search.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pptgeo import harness, states
from pptgeo.bipartite import BipartiteSplit, is_ppt, partial_transpose
from pptgeo.bounds import ppt_radius
from pptgeo.distill import find_schmidt2_witness
from pptgeo.linalg import cholesky_margin

D = 3
SPLIT = BipartiteSplit(D, D)
RADIUS = 0.99 * ppt_radius(D * D)


def _work(rows):
    return states.ShellWork(SPLIT.dim, rows)


@pytest.fixture(scope="module")
def chunk():
    """One chunk's uniforms, its screen, the rows it sends to the float64
    path, and the lowest PT floor of the shell's first 1,000 samples (the
    floor a later chunk starts from)."""
    dim = SPLIT.dim
    floor = harness._scan_part(dim, SPLIT, RADIUS, 1, 0, 1000)[2]
    count = states.shell_chunk(dim)
    u = states.shell_uniforms(np.random.default_rng(7), dim, count)
    sent = []
    shell_states = harness.shell_states

    def recorded(rows, *args):
        sent.append(rows)
        return shell_states(rows, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "shell_states", recorded)
        harness._chunk_tally(np.random.default_rng(7), count, SPLIT, RADIUS, floor, _work(count))
    return u, states.shell_screen(u, dim, RADIUS, _work(count)), sent[0], floor


@pytest.fixture(autouse=True)
def one_process(monkeypatch):
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)


def _timed(benchmark, fn, *args, **kwargs):
    # 100 rounds of 10 calls: each round's figure is a mean over 10 calls,
    # and the JSON keeps 100 figures per test rather than thousands.
    benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=100, iterations=10, warmup_rounds=1)


def test_stage_uniform_draw(benchmark):
    count = states.shell_chunk(SPLIT.dim)
    _timed(benchmark, _work(count).draw, np.random.default_rng(7), count)


def test_stage_float32_screen(benchmark, chunk):
    u, _, _, _ = chunk
    _timed(benchmark, states.shell_screen, u, SPLIT.dim, RADIUS, _work(len(u)))


def test_stage_float64_path_on_open_rows(benchmark, chunk):
    _, _, sent, _ = chunk
    benchmark.extra_info["rows"] = len(sent)
    _timed(benchmark, states.shell_states, sent, SPLIT.dim, RADIUS)


def test_stage_pt_decision(benchmark, chunk):
    u, screen, _, floor = chunk
    work, rows = _work(len(u)), len(screen.candidates)
    margin = states.SCREEN_MARGIN + cholesky_margin(SPLIT.dim)

    def pt_decision():
        pt = partial_transpose(screen.candidates, SPLIT, out=work.pt[:rows])
        return harness._pt_tally(pt, RADIUS, floor, margin, work.scratch)

    _timed(benchmark, pt_decision)


def test_whole_chunk(benchmark, chunk):
    u, _, _, floor = chunk
    rng, work = np.random.default_rng(7), _work(len(u))
    start = rng.bit_generator.state

    def the_chunk():
        rng.bit_generator.state = start  # the fixture's chunk, every call
        return harness._chunk_tally(rng, len(u), SPLIT, RADIUS, floor, work)

    _timed(benchmark, the_chunk)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_claim_check(benchmark, d):
    benchmark.pedantic(harness.claim_check, args=(d,), kwargs={"base_seed": 1}, rounds=3,
                       warmup_rounds=1 if d < 5 else 0)


def test_claim_check_cli_in_a_new_process(benchmark, tmp_path):
    # The new process scans on every usable CPU (`one_process` patches only this one).
    src = Path(harness.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src),
                                                                     os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-m", "pptgeo", "claim-check", "--d", "4", "--seed", "1",
            "--out", str(tmp_path / "claim.json")]
    benchmark.pedantic(subprocess.run, args=(argv,), kwargs={"env": env, "check": True}, rounds=5,
                       warmup_rounds=1)


def test_witness_restart(benchmark):
    split = BipartiteSplit(3, 4)
    state = states.sample_hs(np.random.default_rng(3), split.dim)
    assert not is_ppt(state, split).ppt
    _timed(benchmark, find_schmidt2_witness, state, split, restarts=1)
